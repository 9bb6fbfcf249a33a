// Byte-identity pin for the similarity join and the GED kernels under it.
//
// The join's output is fully determined by its inputs: the pair set, each
// SimP as an exact double, the GED and vertex mapping of the most probable
// qualifying world, and every VerifyStats counter (which records where the
// early exits fired and how many A* calls ran). The kernels are
// deterministic too: BoundedGed's A* pops states in one fixed order, so the
// optimal mapping it returns is fixed, and the greedy bound's assignment is
// fixed. tests/golden/join_digest.txt records all of that for a grid of
// joins (ER and SF data, tau 0..5, 1 and 8 possible-world groups, early exit
// on and off) and for a seeded list of kernel calls. A faster kernel must
// reproduce the file exactly.
//
// On a mismatch the test writes the digest it computed next to the test
// binary (join_digest.actual.txt) and names the first differing line.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "core/similarity.h"
#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "test_util.h"
#include "workload/synthetic.h"

#ifndef SIMJ_TEST_GOLDEN_DIR
#define SIMJ_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace simj::core {
namespace {

// FNV-1a over the pair dump keeps each join to one digest line.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void AppendMapping(const std::vector<int>& mapping, std::string* out) {
  *out += '[';
  for (size_t i = 0; i < mapping.size(); ++i) {
    if (i > 0) *out += ',';
    *out += std::to_string(mapping[i]);
  }
  *out += ']';
}

std::string PairDump(const JoinResult& result) {
  std::string out;
  for (const MatchedPair& pair : result.pairs) {
    out += std::to_string(pair.q_index);
    out += ' ';
    out += std::to_string(pair.g_index);
    out += ' ';
    out += Hex(pair.similarity_probability);
    out += ' ';
    out += std::to_string(pair.best_world_ged);
    out += ' ';
    AppendMapping(pair.mapping, &out);
    out += '\n';
  }
  return out;
}

std::string JoinLine(const std::string& name, const workload::SyntheticDataset& data,
                     int tau, int groups, bool early_exit) {
  SimJParams params;
  params.tau = tau;
  params.alpha = 0.5;
  params.group_count = groups;
  params.early_exit_verification = early_exit;
  params.num_threads = 1;
  JoinResult result = SimJoin(data.certain, data.uncertain, params, data.dict);
  const JoinStats& s = result.stats;
  std::ostringstream line;
  line << "join " << name << " tau=" << tau << " groups=" << groups
       << " early=" << early_exit << " pairs=" << result.pairs.size()
       << " total=" << s.total_pairs << " structural=" << s.pruned_structural
       << " probabilistic=" << s.pruned_probabilistic
       << " candidates=" << s.candidates << " results=" << s.results
       << " worlds=" << s.verify.worlds_enumerated
       << " world_pruned=" << s.verify.worlds_pruned_by_bound
       << " world_greedy=" << s.verify.worlds_accepted_by_upper_bound
       << " ged_calls=" << s.verify.ged_calls
       << " ged_aborted=" << s.verify.ged_aborted << " digest=" << std::hex
       << Fnv1a(PairDump(result));
  return line.str();
}

workload::SyntheticConfig GoldenConfig(uint64_t seed) {
  workload::SyntheticConfig config;
  config.seed = seed;
  config.num_certain = 50;
  config.num_uncertain = 50;
  config.num_vertices = 6;
  config.num_edges = 9;
  config.vertex_label_pool = 12;
  config.edge_label_pool = 4;
  config.labels_per_vertex = 3;
  return config;
}

// One line per kernel call over seeded random pairs whose label pools carry
// wildcards: A* distance and mapping, the greedy bound and its witness, and
// the certain and uncertain CSS bounds with their parts.
std::string KernelLines() {
  std::string out;
  graph::LabelDictionary dict;
  Rng rng(4242);
  std::vector<graph::LabelId> vertex_labels = testing::TestLabels(dict, 5);
  vertex_labels.push_back(dict.Intern("?v"));
  std::vector<graph::LabelId> edge_labels = {dict.Intern("r1"),
                                             dict.Intern("r2"),
                                             dict.Intern("?e")};
  for (int i = 0; i < 400; ++i) {
    const int na = static_cast<int>(rng.Uniform(0, 6));
    const int nb = static_cast<int>(rng.Uniform(0, 6));
    graph::LabeledGraph a = testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, na, static_cast<int>(rng.Uniform(0, 9)));
    graph::LabeledGraph b = testing::RandomCertainGraph(
        rng, vertex_labels, edge_labels, nb, static_cast<int>(rng.Uniform(0, 9)));
    graph::UncertainGraph g = testing::RandomUncertainGraph(
        rng, vertex_labels, edge_labels, nb, static_cast<int>(rng.Uniform(0, 9)),
        /*max_alts=*/3);
    const int tau = static_cast<int>(rng.Uniform(0, 6));
    std::optional<ged::GedResult> bounded = ged::BoundedGed(a, b, tau, dict);
    ged::GedResult exact = ged::ExactGed(a, b, dict);
    std::vector<int> greedy_mapping;
    const int greedy = ged::GreedyGedUpperBound(a, b, dict, &greedy_mapping);
    out += "kernel ";
    out += std::to_string(i);
    out += " tau=";
    out += std::to_string(tau);
    out += " bounded=";
    if (bounded.has_value()) {
      out += std::to_string(bounded->distance);
      AppendMapping(bounded->mapping, &out);
    } else {
      out += "none";
    }
    out += " exact=";
    out += std::to_string(exact.distance);
    AppendMapping(exact.mapping, &out);
    out += " greedy=";
    out += std::to_string(greedy);
    AppendMapping(greedy_mapping, &out);
    out += " css=";
    out += std::to_string(ged::CssLowerBound(a, b, dict));
    out += " css_u=";
    out += std::to_string(ged::CssLowerBoundUncertain(a, g, dict));
    out += " c=";
    out += std::to_string(ged::CssStructuralConstant(a, g, dict));
    out += " lambda_v=";
    out += std::to_string(ged::MaxCommonVertexLabels(a, g, dict));
    out += '\n';
  }
  return out;
}

std::string ComputeDigest() {
  std::string out;
  const workload::SyntheticDataset er = workload::MakeErDataset(GoldenConfig(100));
  const workload::SyntheticDataset sf = workload::MakeSfDataset(GoldenConfig(101));
  for (const auto& [name, data] :
       {std::pair<const char*, const workload::SyntheticDataset*>{"er", &er},
        {"sf", &sf}}) {
    for (int tau = 0; tau <= 5; ++tau) {
      for (int groups : {1, 8}) {
        for (bool early_exit : {true, false}) {
          out += JoinLine(name, *data, tau, groups, early_exit);
          out += '\n';
        }
      }
    }
  }
  out += KernelLines();
  return out;
}

TEST(JoinGoldenTest, JoinAndKernelsMatchTheCheckedInDigest) {
  const std::string golden_path =
      std::string(SIMJ_TEST_GOLDEN_DIR) + "/join_digest.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string actual = ComputeDigest();
  if (actual == golden.str()) return;

  std::ofstream("join_digest.actual.txt") << actual;
  std::istringstream want(golden.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 1;
  while (true) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (!more_want || !more_got || want_line != got_line) {
      FAIL() << "digest differs at line " << line << "\n  want: "
             << (more_want ? want_line : "<end>")
             << "\n  got:  " << (more_got ? got_line : "<end>")
             << "\n(full digest written to join_digest.actual.txt)";
    }
    ++line;
  }
}

}  // namespace
}  // namespace simj::core

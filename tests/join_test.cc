#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/join.h"
#include "core/similarity.h"
#include "core/topk.h"
#include "ged/lower_bounds.h"
#include "templates/template.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"

namespace simj::core {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::UncertainGraph;

// Brute-force reference: exact SimP for every pair, no pruning at all.
std::set<std::pair<int, int>> BruteForceJoin(
    const std::vector<LabeledGraph>& d, const std::vector<UncertainGraph>& u,
    int tau, double alpha, const LabelDictionary& dict) {
  std::set<std::pair<int, int>> result;
  for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
    for (int gi = 0; gi < static_cast<int>(u.size()); ++gi) {
      if (ComputeSimP(d[qi], u[gi], tau, dict).probability >= alpha - 1e-9) {
        result.insert({qi, gi});
      }
    }
  }
  return result;
}

std::set<std::pair<int, int>> PairSet(const JoinResult& result) {
  std::set<std::pair<int, int>> out;
  for (const MatchedPair& pair : result.pairs) {
    out.insert({pair.q_index, pair.g_index});
  }
  return out;
}

class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceTest, AllConfigurationsAgreeWithBruteForce) {
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(900 + GetParam());
  const LabelDictionary& dict = workload.dict;
  const std::vector<LabeledGraph>& d = workload.d;
  const std::vector<UncertainGraph>& u = workload.u;
  Rng rng(9000 + GetParam());

  int tau = static_cast<int>(rng.Uniform(0, 3));
  double alpha = 0.2 + 0.6 * rng.UniformDouble();
  std::set<std::pair<int, int>> reference =
      BruteForceJoin(d, u, tau, alpha, dict);

  // CSS only / SimJ / SimJ+opt / everything off must all return the same
  // pair set as the brute force.
  for (int config = 0; config < 4; ++config) {
    SimJParams params;
    params.tau = tau;
    params.alpha = alpha;
    params.structural_pruning = config != 3;
    params.probabilistic_pruning = config == 1 || config == 2;
    params.group_count = config == 2 ? 6 : 1;
    JoinResult joined = SimJoin(d, u, params, dict);
    EXPECT_EQ(PairSet(joined), reference)
        << "config=" << config << " tau=" << tau << " alpha=" << alpha;
    // Sanity on statistics bookkeeping.
    EXPECT_EQ(joined.stats.total_pairs,
              static_cast<int64_t>(d.size() * u.size()));
    EXPECT_EQ(joined.stats.results,
              static_cast<int64_t>(joined.pairs.size()));
    EXPECT_LE(joined.stats.candidates, joined.stats.total_pairs);
    EXPECT_EQ(joined.stats.total_pairs - joined.stats.pruned_structural -
                  joined.stats.pruned_probabilistic,
              joined.stats.candidates);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinEquivalenceTest, ::testing::Range(0, 30));

TEST(JoinTest, MatchedPairCarriesMappingForTemplates) {
  LabelDictionary dict;
  graph::LabelId var = dict.Intern("?x");
  graph::LabelId artist = dict.Intern("Artist");
  graph::LabelId politician = dict.Intern("Politician");
  graph::LabelId university = dict.Intern("University");
  graph::LabelId company = dict.Intern("Company");
  graph::LabelId type = dict.Intern("type");
  graph::LabelId grad = dict.Intern("graduatedFrom");

  // q1 from the paper's running example.
  LabeledGraph q;
  q.AddVertex(var);
  q.AddVertex(artist);
  q.AddVertex(university);
  q.AddEdge(0, 1, type);
  q.AddEdge(0, 2, grad);

  // g2: "Which politician graduated from CIT?" (CIT: University 0.8 /
  // Company 0.2).
  UncertainGraph g;
  g.AddCertainVertex(var);
  g.AddCertainVertex(politician);
  g.AddVertex({{university, 0.8}, {company, 0.2}});
  g.AddEdge(0, 1, type);
  g.AddEdge(0, 2, grad);

  SimJParams params;
  params.tau = 1;
  params.alpha = 0.7;
  JoinResult result = SimJoin({q}, {g}, params, dict);
  ASSERT_EQ(result.pairs.size(), 1u);
  const MatchedPair& pair = result.pairs[0];
  // SimP = 0.8 (world with University qualifies at ged 1; the Company world
  // has ged 2).
  EXPECT_NEAR(pair.similarity_probability, 0.8, 1e-9);
  ASSERT_EQ(pair.mapping.size(), 3u);
  EXPECT_EQ(pair.mapping[0], 0);  // ?x        <-> ?x
  EXPECT_EQ(pair.mapping[1], 1);  // Artist    <-> Politician
  EXPECT_EQ(pair.mapping[2], 2);  // University<-> CIT
}

// Regression test: the result set must shrink monotonically as alpha grows,
// including at alphas that exactly hit accumulated world probabilities
// (0.1 * k arithmetic bit-patterns vs exact confidence sums).
TEST(JoinTest, ResultsAreMonotoneInAlpha) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 6;
  options.num_uncertain = 6;
  options.vertex_label_pool = 4;
  options.edge_label_pool = 1;
  options.add_wildcard = false;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(999, options);
  const LabelDictionary& dict = workload.dict;
  std::vector<LabeledGraph>& d = workload.d;
  std::vector<UncertainGraph>& u = workload.u;
  // Mix in a vertex with the exact 0.6/0.4 confidences the workload
  // generator produces, so some SimP values equal 0.1 * k exactly.
  UncertainGraph exact_probs;
  exact_probs.AddVertex({{workload.vertex_labels[0], 0.6},
                         {workload.vertex_labels[1], 0.4}});
  u.push_back(std::move(exact_probs));
  LabeledGraph single;
  single.AddVertex(workload.vertex_labels[0]);
  d.push_back(std::move(single));

  std::set<std::pair<int, int>> previous;
  bool first = true;
  for (int step = 9; step >= 1; --step) {
    SimJParams params;
    params.tau = 1;
    params.alpha = 0.1 * step;
    std::set<std::pair<int, int>> current = PairSet(SimJoin(d, u, params, dict));
    if (!first) {
      for (const auto& pair : previous) {
        EXPECT_TRUE(current.contains(pair))
            << "pair (" << pair.first << "," << pair.second
            << ") present at alpha=" << 0.1 * (step + 1)
            << " but missing at alpha=" << 0.1 * step;
      }
    }
    previous = std::move(current);
    first = false;
  }
}

class IndexedJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexedJoinTest, IndexedJoinMatchesNestedLoop) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 8;
  options.num_uncertain = 8;
  options.max_vertices = 5;
  options.max_edges = 6;
  options.max_uncertain_edges = 5;
  options.vertex_label_pool = 4;
  options.edge_label_pool = 1;
  options.add_wildcard = false;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(1400 + GetParam(), options);
  const LabelDictionary& dict = workload.dict;
  const std::vector<LabeledGraph>& d = workload.d;
  const std::vector<UncertainGraph>& u = workload.u;
  Rng rng(14000 + GetParam());
  SimJParams params;
  params.tau = static_cast<int>(rng.Uniform(0, 3));
  params.alpha = 0.2 + 0.6 * rng.UniformDouble();

  JoinResult nested = SimJoin(d, u, params, dict);
  JoinResult indexed = IndexedSimJoin(d, u, params, dict);
  EXPECT_EQ(PairSet(indexed), PairSet(nested));
  EXPECT_EQ(indexed.stats.total_pairs, nested.stats.total_pairs);
  // The index only ever *adds* pruning.
  EXPECT_GE(indexed.stats.pruned_structural,
            nested.stats.pruned_structural);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexedJoinTest, ::testing::Range(0, 25));

TEST(IndexTest, CandidatesRespectCountBound) {
  LabelDictionary dict;
  graph::LabelId l = dict.Intern("L");
  std::vector<LabeledGraph> d;
  for (int vertices : {1, 2, 3, 5}) {
    LabeledGraph g;
    for (int v = 0; v < vertices; ++v) g.AddVertex(l);
    for (int v = 1; v < vertices; ++v) g.AddEdge(v - 1, v, l);
    d.push_back(std::move(g));
  }
  CertainGraphIndex index(&d);
  UncertainGraph g;
  g.AddCertainVertex(l);
  g.AddCertainVertex(l);
  g.AddCertainVertex(l);
  g.AddEdge(0, 1, l);
  g.AddEdge(1, 2, l);
  // |V|=3, |E|=2. tau=0: only the exact size bucket.
  EXPECT_EQ(index.Candidates(g, 0), (std::vector<int>{2}));
  // tau=2: sizes within combined distance 2: (2,1) and (3,2).
  EXPECT_EQ(index.Candidates(g, 2), (std::vector<int>{1, 2}));
  // Large tau: everything.
  EXPECT_EQ(index.Candidates(g, 10), (std::vector<int>{0, 1, 2, 3}));
}

class TopKJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKJoinTest, MatchesBruteForceRanking) {
  simj::testing::RandomJoinWorkloadOptions options;
  options.num_certain = 7;
  options.num_uncertain = 4;
  options.vertex_label_pool = 4;
  options.edge_label_pool = 1;
  options.add_wildcard = false;
  simj::testing::RandomJoinWorkload workload =
      simj::testing::MakeRandomJoinWorkload(1500 + GetParam(), options);
  const LabelDictionary& dict = workload.dict;
  const std::vector<LabeledGraph>& d = workload.d;
  const std::vector<UncertainGraph>& u = workload.u;
  Rng rng(15000 + GetParam());
  TopKParams params;
  params.tau = static_cast<int>(rng.Uniform(0, 3));
  params.k = static_cast<int>(rng.Uniform(1, 4));
  params.group_count = GetParam() % 2 == 0 ? 1 : 4;

  TopKResult topk = TopKJoin(d, u, params, dict);
  ASSERT_EQ(topk.matches.size(), u.size());
  for (size_t gi = 0; gi < u.size(); ++gi) {
    // Brute force: exact SimP for every q, rank, take k nonzero.
    std::vector<std::pair<double, int>> all;
    for (int qi = 0; qi < static_cast<int>(d.size()); ++qi) {
      double simp =
          ComputeSimP(d[qi], u[gi], params.tau, dict).probability;
      if (simp > kSimPEpsilon) all.push_back({simp, qi});
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    if (static_cast<int>(all.size()) > params.k) all.resize(params.k);

    const std::vector<MatchedPair>& got = topk.matches[gi];
    ASSERT_EQ(got.size(), all.size()) << "g=" << gi;
    for (size_t r = 0; r < all.size(); ++r) {
      EXPECT_EQ(got[r].q_index, all[r].second) << "g=" << gi << " rank=" << r;
      EXPECT_NEAR(got[r].similarity_probability, all[r].first, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopKJoinTest, ::testing::Range(0, 25));

// A threaded join freezes the dictionary only while its workers run:
// template generation, which interns slot labels, must work on its output.
TEST(JoinTest, ThreadedJoinLeavesTheDictionaryUsable) {
  workload::KnowledgeBase kb(workload::KbConfig{.seed = 77});
  workload::Workload work =
      simj::testing::MakeSeededWorkload(kb, 78, /*num_questions=*/60);
  workload::JoinSides sides = workload::BuildJoinSides(kb, work);
  SimJParams params;
  params.tau = 1;
  params.alpha = 0.6;
  params.num_threads = 2;
  JoinResult joined = SimJoin(sides.d, sides.u, params, kb.dict());
  ASSERT_FALSE(joined.pairs.empty());
  EXPECT_FALSE(kb.dict().frozen());

  const MatchedPair& pair = joined.pairs.front();
  StatusOr<tmpl::Template> t = tmpl::GenerateTemplate(
      work.sparql_queries[pair.q_index], sides.d_graphs[pair.q_index],
      sides.u_parsed[pair.g_index], sides.u_graphs[pair.g_index],
      pair.mapping, kb.dict());
  EXPECT_TRUE(t.ok()) << t.status().ToString();
}

// The freeze restores whatever state the dictionary had: a permanently
// frozen dictionary stays frozen after a threaded join.
TEST(JoinTest, ThreadedJoinKeepsAPermanentFreeze) {
  workload::SyntheticDataset data =
      simj::testing::MakeTinySyntheticDataset(5, 3, 3);
  data.dict.Freeze();
  SimJParams params;
  params.num_threads = 2;
  JoinResult ignored = SimJoin(data.certain, data.uncertain, params, data.dict);
  (void)ignored;
  EXPECT_TRUE(data.dict.frozen());
}

// With explain mode off the structural filter may stop at a floor above
// tau instead of the exact CSS bound; the decisions, and so the pairs and
// every counter, must not change.
TEST(JoinTest, ExplainModeDoesNotChangeResultsOrCounters) {
  for (int seed = 0; seed < 12; ++seed) {
    simj::testing::RandomJoinWorkloadOptions options;
    options.num_certain = 8;
    options.num_uncertain = 8;
    options.max_vertices = 6;
    options.max_edges = 8;
    options.max_uncertain_edges = 8;
    simj::testing::RandomJoinWorkload workload =
        simj::testing::MakeRandomJoinWorkload(1700 + seed, options);
    SimJParams params;
    params.tau = seed % 4;
    params.alpha = 0.3;
    params.probabilistic_pruning = seed % 2 == 0;
    JoinResult quiet = SimJoin(workload.d, workload.u, params, workload.dict);
    params.explain.enabled = true;
    JoinResult explained =
        SimJoin(workload.d, workload.u, params, workload.dict);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ASSERT_EQ(quiet.pairs.size(), explained.pairs.size());
    for (size_t i = 0; i < quiet.pairs.size(); ++i) {
      const MatchedPair& a = quiet.pairs[i];
      const MatchedPair& b = explained.pairs[i];
      EXPECT_EQ(a.q_index, b.q_index);
      EXPECT_EQ(a.g_index, b.g_index);
      EXPECT_EQ(a.similarity_probability, b.similarity_probability);
      EXPECT_EQ(a.mapping, b.mapping);
      EXPECT_EQ(a.best_world_ged, b.best_world_ged);
    }
    const JoinStats& x = quiet.stats;
    const JoinStats& y = explained.stats;
    EXPECT_GT(x.pruned_structural, 0);
    EXPECT_EQ(x.total_pairs, y.total_pairs);
    EXPECT_EQ(x.pruned_structural, y.pruned_structural);
    EXPECT_EQ(x.pruned_probabilistic, y.pruned_probabilistic);
    EXPECT_EQ(x.candidates, y.candidates);
    EXPECT_EQ(x.results, y.results);
    EXPECT_EQ(x.verify.worlds_enumerated, y.verify.worlds_enumerated);
    EXPECT_EQ(x.verify.worlds_pruned_by_bound, y.verify.worlds_pruned_by_bound);
    EXPECT_EQ(x.verify.worlds_accepted_by_upper_bound,
              y.verify.worlds_accepted_by_upper_bound);
    EXPECT_EQ(x.verify.ged_calls, y.verify.ged_calls);
    EXPECT_EQ(x.verify.ged_aborted, y.verify.ged_aborted);
    EXPECT_TRUE(quiet.explains.empty());
    EXPECT_EQ(explained.explains.size(),
              static_cast<size_t>(explained.stats.total_pairs));
    // Explain mode records the exact bound, never the threshold floor.
    for (const PairExplain& record : explained.explains) {
      EXPECT_EQ(record.css_lower_bound,
                ged::CssLowerBoundUncertain(workload.d[record.q_index],
                                            workload.u[record.g_index],
                                            workload.dict));
    }
  }
}

TEST(JoinTest, EmptyInputs) {
  LabelDictionary dict;
  SimJParams params;
  JoinResult result = SimJoin({}, {}, params, dict);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.stats.total_pairs, 0);
  EXPECT_EQ(result.stats.CandidateRatio(), 0.0);
}

}  // namespace
}  // namespace simj::core

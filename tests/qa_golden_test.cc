// Byte-identity pin for online template answering (TemplateQa::Answer).
//
// The store is the one Table 4 evaluates: the knowledge base of seed 77,
// templates generated from the SimJ join (tau=1, alpha=0.6) over its
// training workload (seed 78), answered on the held-out workload (seed 79).
// For every held-out question tests/golden/qa_digest.txt records the answer
// status, the chosen template, the matching proportion phi as an exact
// double, the tree edit distance and the answer rows (sorted, by term
// name). A faster matcher must reproduce the file exactly.
//
// On a mismatch the test writes the digest it computed next to the test
// binary (qa_digest.actual.txt) and names the first differing line.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "templates/qa.h"
#include "templates/template.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"

#ifndef SIMJ_TEST_GOLDEN_DIR
#define SIMJ_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace simj::tmpl {
namespace {

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// The template store of bench_table4_qa_systems.
TemplateStore BuildTable4Store(workload::KnowledgeBase& kb) {
  workload::WorkloadConfig train_config;
  train_config.seed = 78;
  train_config.num_questions = 400;
  train_config.distractor_queries = 200;
  const workload::Workload train = workload::GenerateWorkload(kb, train_config);
  const workload::JoinSides sides = workload::BuildJoinSides(kb, train);

  core::SimJParams params;
  params.tau = 1;
  params.alpha = 0.6;
  params.structural_pruning = true;
  params.probabilistic_pruning = true;
  params.group_count = 1;
  params.num_threads = 1;
  const core::JoinResult joined =
      core::SimJoin(sides.d, sides.u, params, kb.dict());

  TemplateStore store;
  for (const core::MatchedPair& pair : joined.pairs) {
    StatusOr<Template> t = GenerateTemplate(
        train.sparql_queries[pair.q_index], sides.d_graphs[pair.q_index],
        sides.u_parsed[pair.g_index], sides.u_graphs[pair.g_index],
        pair.mapping, kb.dict());
    if (t.ok()) store.Add(*std::move(t), kb.dict());
  }
  return store;
}

std::string ComputeDigest() {
  workload::KnowledgeBase kb(workload::KbConfig{.seed = 77});
  const TemplateStore store = BuildTable4Store(kb);
  workload::WorkloadConfig test_config;
  test_config.seed = 79;
  test_config.num_questions = 200;
  const workload::Workload test = workload::GenerateWorkload(kb, test_config);

  const TemplateQa qa(&store, &kb.lexicon(), &kb.store(), &kb.dict());
  std::string out = "templates=" + std::to_string(store.size()) + "\n";
  for (size_t i = 0; i < test.questions.size(); ++i) {
    const StatusOr<QaAnswer> answer = qa.Answer(test.questions[i].text);
    out += "q " + std::to_string(i) + ' ';
    if (!answer.ok()) {
      out += answer.status().ToString();
      out += '\n';
      continue;
    }
    out += "ok template=" + std::to_string(answer->template_index) +
           " phi=" + Hex(answer->matching_proportion) +
           " ted=" + std::to_string(answer->tree_edit_distance) +
           " rows=" + std::to_string(answer->rows.size()) + '\n';
    std::vector<std::string> rows;
    for (const std::vector<rdf::TermId>& row : answer->rows) {
      std::string text;
      for (rdf::TermId term : row) {
        if (!text.empty()) text += ' ';
        text += kb.dict().Name(term);
      }
      rows.push_back(std::move(text));
    }
    std::sort(rows.begin(), rows.end());
    for (const std::string& row : rows) out += "  " + row + '\n';
  }
  return out;
}

TEST(QaGoldenTest, HeldOutAnswersMatchTheCheckedInDigest) {
  const std::string golden_path =
      std::string(SIMJ_TEST_GOLDEN_DIR) + "/qa_digest.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string actual = ComputeDigest();
  if (actual == golden.str()) return;

  std::ofstream("qa_digest.actual.txt") << actual;
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
             << "\n(full digest written to qa_digest.actual.txt)";
    }
    ++line;
  }
}

}  // namespace
}  // namespace simj::tmpl

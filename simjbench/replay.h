// Layer-by-layer replays of the simj entry points the benchmark times.
//
// Each replay re-runs one entry point (core::EvaluatePair as driven by
// core::SimJoin, workload::BuildJoinSides, tmpl::TemplateQa::Answer) by
// calling the public functions of the layers underneath it in the same
// order, with one Span per call. The replays must reproduce the entry
// points' decisions and counters exactly; the correctness gate in main.cc
// checks that they do, so a replay that drifts from the code it mirrors
// fails the benchmark instead of producing a misleading per-layer table.

#ifndef SIMJBENCH_REPLAY_H_
#define SIMJBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "core/join.h"
#include "span.h"
#include "templates/qa.h"
#include "templates/template.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"

namespace simjbench {

// Where the filter-and-refine pipeline decided a pair.
enum class Stage : uint8_t { kStructural, kProbabilistic, kRejected, kAccepted };

struct JoinCounts {
  // Same counters core::SimJoin reports (wall/cpu seconds stay zero).
  simj::core::JoinStats stats;
  // Live possible-world groups summed over the pairs that were partitioned.
  int64_t live_groups = 0;
};

// Replays core::EvaluatePair(q, g) with params.structural_pruning,
// params.probabilistic_pruning and params.early_exit_verification all on
// (the only configuration the benchmark runs; checked). Fills *pair's
// probability, mapping and best GED when the pair is accepted.
Stage ReplayPair(const simj::graph::LabeledGraph& q,
                 const simj::graph::UncertainGraph& g,
                 const simj::core::SimJParams& params,
                 const simj::graph::LabelDictionary& dict, Tracer* tracer,
                 JoinCounts* counts, simj::core::MatchedPair* pair);

// Replays workload::BuildJoinSides.
simj::workload::JoinSides ReplayBuildJoinSides(
    simj::workload::KnowledgeBase& kb, const simj::workload::Workload& work,
    Tracer* tracer);

struct AnswerCounts {
  int64_t questions = 0;
  int64_t align_calls = 0;
  int64_t align_passed = 0;  // alignments at or above the phi threshold
  int64_t evaluations = 0;
  int64_t rows = 0;
};

// Replays tmpl::TemplateQa::Answer with default QaOptions.
simj::StatusOr<simj::tmpl::QaAnswer> ReplayAnswer(
    const std::string& question, const simj::tmpl::TemplateStore& templates,
    const simj::nlp::Lexicon& lexicon, const simj::rdf::TripleStore& store,
    const simj::graph::LabelDictionary& dict, Tracer* tracer,
    AnswerCounts* counts);

}  // namespace simjbench

#endif  // SIMJBENCH_REPLAY_H_

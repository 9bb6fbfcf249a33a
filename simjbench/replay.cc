#include "replay.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/groups.h"
#include "core/similarity.h"
#include "ged/lower_bounds.h"
#include "nlp/dependency.h"
#include "nlp/semantic_graph.h"
#include "nlp/uncertain_builder.h"
#include "sparql/parser.h"
#include "util/check.h"

namespace simjbench {

using simj::StatusOr;
namespace core = simj::core;
namespace graph = simj::graph;
namespace nlp = simj::nlp;
namespace tmpl = simj::tmpl;
namespace workload = simj::workload;

Stage ReplayPair(const graph::LabeledGraph& q, const graph::UncertainGraph& g,
                 const core::SimJParams& params,
                 const graph::LabelDictionary& dict, Tracer* tracer,
                 JoinCounts* counts, core::MatchedPair* pair) {
  SIMJ_CHECK(params.structural_pruning && params.probabilistic_pruning &&
             params.early_exit_verification);
  core::JoinStats& stats = counts->stats;
  ++stats.total_pairs;

  const int lower_bound = Traced(tracer, kCss, [&] {
    return simj::ged::CssLowerBoundUncertain(q, g, dict);
  });
  if (lower_bound > params.tau) {
    ++stats.pruned_structural;
    return Stage::kStructural;
  }

  core::GroupingOptions options;
  options.group_count = params.group_count;
  options.heuristic = params.split_heuristic;
  core::GroupingResult grouping = Traced(tracer, kPartition, [&] {
    return core::PartitionPossibleWorlds(q, g, params.tau, dict, options);
  });
  counts->live_groups += static_cast<int64_t>(grouping.live_groups.size());
  if (grouping.simp_upper_bound < params.alpha - core::kSimPEpsilon) {
    ++stats.pruned_probabilistic;
    return Stage::kProbabilistic;
  }

  ++stats.candidates;
  const core::SimPResult simp = Traced(tracer, kVerify, [&] {
    // Heavier groups first, exactly as EvaluatePair orders them: the order
    // decides where VerifySimP's early exits fire, hence its counters.
    std::sort(grouping.live_groups.begin(), grouping.live_groups.end(),
              [](const core::ScoredGroup& a, const core::ScoredGroup& b) {
                return a.mass > b.mass;
              });
    std::vector<graph::UncertainGraph> groups;
    groups.reserve(grouping.live_groups.size());
    for (core::ScoredGroup& group : grouping.live_groups) {
      groups.push_back(std::move(group.graph));
    }
    return core::VerifySimP(q, groups, grouping.live_mass, params.tau,
                            params.alpha, dict, params.ged_options,
                            &stats.verify);
  });
  const bool accepted = simp.early_accept ||
                        simp.probability >= params.alpha - core::kSimPEpsilon;
  if (!accepted) return Stage::kRejected;
  ++stats.results;
  pair->similarity_probability = simp.probability;
  pair->mapping = simp.best_mapping;
  pair->best_world_ged = simp.best_world_ged;
  return Stage::kAccepted;
}

workload::JoinSides ReplayBuildJoinSides(workload::KnowledgeBase& kb,
                                         const workload::Workload& work,
                                         Tracer* tracer) {
  workload::JoinSides sides;
  std::function<graph::LabelId(simj::rdf::TermId)> resolver =
      kb.TypeResolver();
  for (const simj::sparql::ParsedQuery& query : work.sparql_queries) {
    simj::sparql::QueryGraph qgraph = Traced(tracer, kQueryGraph, [&] {
      return simj::sparql::BuildQueryGraph(query, kb.dict(), &resolver);
    });
    sides.d.push_back(qgraph.graph);
    sides.d_graphs.push_back(std::move(qgraph));
  }
  for (size_t i = 0; i < work.questions.size(); ++i) {
    StatusOr<nlp::ParsedQuestion> parsed = Traced(tracer, kParseQuestion, [&] {
      return nlp::ParseQuestion(work.questions[i].text, kb.lexicon());
    });
    if (!parsed.ok()) {
      ++sides.parse_failures;
      continue;
    }
    StatusOr<nlp::UncertainQuestionGraph> ugraph =
        Traced(tracer, kUncertainBuild, [&] {
          return nlp::BuildUncertainGraph(*parsed, kb.lexicon(), kb.dict());
        });
    if (!ugraph.ok()) {
      ++sides.build_failures;
      continue;
    }
    sides.u.push_back(ugraph->graph);
    sides.u_question_index.push_back(static_cast<int>(i));
    sides.u_parsed.push_back(*std::move(parsed));
    sides.u_graphs.push_back(*std::move(ugraph));
  }
  return sides;
}

namespace {

// Template ranking of TemplateQa::Answer: tree distance, then alignment
// cost, then coverage, then workload support.
struct Candidate {
  int index = -1;
  nlp::TokenAlignment alignment;
  int ted = std::numeric_limits<int>::max();
  int support = 0;

  bool BetterThan(const Candidate& other) const {
    if (ted != other.ted) return ted < other.ted;
    if (alignment.cost != other.alignment.cost) {
      return alignment.cost < other.alignment.cost;
    }
    if (alignment.matching_proportion != other.alignment.matching_proportion) {
      return alignment.matching_proportion >
             other.alignment.matching_proportion;
    }
    return support > other.support;
  }
};

}  // namespace

StatusOr<tmpl::QaAnswer> ReplayAnswer(const std::string& question,
                                      const tmpl::TemplateStore& templates,
                                      const nlp::Lexicon& lexicon,
                                      const simj::rdf::TripleStore& store,
                                      const graph::LabelDictionary& dict,
                                      Tracer* tracer, AnswerCounts* counts) {
  const tmpl::QaOptions options;
  ++counts->questions;
  const std::vector<std::string> tokens = Traced(
      tracer, kNormalize, [&] { return nlp::NormalizeQuestion(question); });
  if (tokens.empty()) return simj::InvalidArgumentError("empty question");

  std::optional<nlp::DepTree> question_tree;
  const StatusOr<nlp::ParsedQuestion> parsed = Traced(
      tracer, kParseQuestion, [&] { return nlp::ParseQuestion(question, lexicon); });
  if (parsed.ok()) {
    question_tree = Traced(tracer, kQuestionTree,
                           [&] { return nlp::BuildQuestionTree(*parsed); });
  }

  std::function<bool(const std::string&)> slot_validator =
      [&lexicon](const std::string& span) {
        return lexicon.FindEntity(span) != nullptr ||
               lexicon.FindClass(span) != nullptr;
      };

  std::optional<Candidate> best;
  for (int i = 0; i < templates.size(); ++i) {
    const tmpl::Template& t = templates.templates()[i];
    std::optional<nlp::TokenAlignment> alignment = Traced(tracer, kAlign, [&] {
      return nlp::AlignTokens(t.nl_tokens, t.num_slots(), tokens,
                              &slot_validator);
    });
    ++counts->align_calls;
    if (!alignment.has_value()) continue;
    if (alignment->matching_proportion <
        options.min_matching_proportion - 1e-9) {
      continue;
    }
    ++counts->align_passed;
    Candidate candidate;
    candidate.index = i;
    candidate.alignment = *std::move(alignment);
    candidate.support = t.support_count;
    if (question_tree.has_value()) {
      candidate.ted = Traced(tracer, kTreeEdit, [&] {
        return nlp::TreeEditDistance(*question_tree, t.tree);
      });
    }
    if (!best.has_value() || candidate.BetterThan(*best)) {
      best = std::move(candidate);
    }
  }
  if (!best.has_value()) {
    return simj::NotFoundError("no template matches the question");
  }

  const tmpl::Template& chosen = templates.templates()[best->index];
  std::vector<simj::rdf::TermId> slot_terms(chosen.num_slots(),
                                            graph::kInvalidLabel);
  {
    Span span(tracer, kSlotLink);
    for (int k = 0; k < chosen.num_slots(); ++k) {
      const std::string& phrase = best->alignment.slot_phrases[k];
      const tmpl::Slot& slot = chosen.slots[k];
      if (slot.kind == tmpl::SlotKind::kClass) {
        const nlp::ClassLink* link = lexicon.FindClass(phrase);
        if (link == nullptr) {
          return simj::NotFoundError("no class for slot phrase '" + phrase +
                                     "'");
        }
        slot_terms[k] = link->class_term;
        continue;
      }
      const std::vector<nlp::EntityLink>* links = lexicon.FindEntity(phrase);
      if (links == nullptr || links->empty()) {
        return simj::NotFoundError("no entity for slot phrase '" + phrase +
                                   "'");
      }
      const nlp::EntityLink* pick = nullptr;
      for (const nlp::EntityLink& link : *links) {
        if (link.type_label == slot.expected_type) {
          pick = &link;
          break;
        }
      }
      if (pick == nullptr) pick = &links->front();
      slot_terms[k] = pick->entity;
    }
  }

  tmpl::QaAnswer answer;
  answer.executed = chosen.pattern;
  for (simj::rdf::TriplePattern& pattern : answer.executed.patterns) {
    for (simj::rdf::TermId* field :
         {&pattern.subject, &pattern.predicate, &pattern.object}) {
      const std::string& name = dict.Name(*field);
      if (name.size() > 6 && name.rfind("__slot", 0) == 0) {
        int slot_index = std::atoi(name.substr(6).c_str());
        if (slot_index >= 0 && slot_index < chosen.num_slots()) {
          *field = slot_terms[slot_index];
        }
      }
    }
  }
  answer.template_index = best->index;
  answer.matching_proportion = best->alignment.matching_proportion;
  answer.tree_edit_distance =
      best->ted == std::numeric_limits<int>::max() ? -1 : best->ted;
  answer.rows = Traced(tracer, kEvaluate, [&] {
    return store.Evaluate(answer.executed.ToBgp(), dict);
  });
  ++counts->evaluations;
  counts->rows += static_cast<int64_t>(answer.rows.size());
  return answer;
}

}  // namespace simjbench

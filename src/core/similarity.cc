#include "core/similarity.h"

#include <algorithm>

#include "ged/graph_summary.h"
#include "ged/lower_bounds.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simj::core {

namespace {

using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::LabelId;
using graph::PossibleWorldIterator;
using graph::UncertainGraph;

// Facts of one possible-world group that every world reads: its structure
// (shared by all its worlds, which differ only in vertex labels), the CSS
// structural constant C(q, group), and the buffer each world's vertex
// labels are written into.
struct GroupContext {
  GroupContext(const ged::GraphSummary& q_summary, const UncertainGraph& g,
               const LabelDictionary& dict)
      : graph(g),
        summary(g.structure()),
        structural_constant(ged::CssStructuralConstant(
            q_summary.facts(), summary.facts(), dict)),
        world_labels(g.num_vertices(), graph::kInvalidLabel) {}

  const UncertainGraph& graph;
  const ged::GraphSummary summary;
  const int structural_constant;
  std::vector<LabelId> world_labels;
};

// Evaluates one possible world: bound check, then bounded A*. Updates the
// accumulator and best-world tracking in `result`.
void EvaluateWorld(const ged::SummaryView& q, GroupContext& group,
                   const std::vector<int>& choice, double world_prob, int tau,
                   const LabelDictionary& dict, const ged::GedOptions& options,
                   VerifyStats* stats, SimPResult* result) {
  static metrics::Counter& worlds_total =
      metrics::Registry::Global().GetCounter("simj_verify_worlds_total");
  static metrics::Counter& worlds_pruned =
      metrics::Registry::Global().GetCounter(
          "simj_verify_worlds_pruned_total");
  static metrics::Histogram& ged_seconds =
      metrics::Registry::Global().GetHistogram("simj_verify_ged_seconds");
  ++stats->worlds_enumerated;
  worlds_total.Increment();
  SIMJ_CHECK_EQ(choice.size(), group.world_labels.size());
  for (size_t v = 0; v < choice.size(); ++v) {
    const auto& alternatives = group.graph.alternatives(static_cast<int>(v));
    SIMJ_CHECK(choice[v] >= 0 &&
               choice[v] < static_cast<int>(alternatives.size()));
    group.world_labels[v] = alternatives[choice[v]].label;
  }
  const ged::SummaryView world{group.summary, group.world_labels};
  // The certain CSS bound of this world: only lambda_V depends on the
  // world's labels.
  if (group.structural_constant -
          ged::MatchableVertexLabels(q.labels, world.labels, dict) >
      tau) {
    ++stats->worlds_pruned_by_bound;
    worlds_pruned.Increment();
    return;
  }
  // Cheap accept: when the greedy upper bound already fits within tau and
  // this world cannot improve the best mapping, skip the exact search. The
  // exact A* still runs for would-be-best worlds so template generation
  // sees an optimal mapping.
  if (world_prob <= result->best_world_prob &&
      ged::GreedyGedUpperBound(q, world, dict) <= tau) {
    ++stats->worlds_accepted_by_upper_bound;
    result->probability += world_prob;
    return;
  }
  ++stats->ged_calls;
  bool aborted = false;
  std::optional<ged::GedResult> ged_result;
  {
    metrics::ScopedLatency latency(ged_seconds);
    trace::ScopedSpan span("ged_astar", "verify");
    ged_result = ged::BoundedGed(q, world, tau, dict, options, &aborted);
  }
  if (aborted) ++stats->ged_aborted;
  if (!ged_result.has_value()) return;
  result->probability += world_prob;
  if (world_prob > result->best_world_prob) {
    result->best_world_prob = world_prob;
    result->best_world_ged = ged_result->distance;
    result->best_mapping = ged_result->mapping;
  }
}

}  // namespace

SimPResult ComputeSimP(const LabeledGraph& q, const UncertainGraph& g,
                       int tau, const LabelDictionary& dict,
                       const ged::GedOptions& options, VerifyStats* stats) {
  VerifyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  SimPResult result;
  const ged::GraphSummary q_summary(q);
  const ged::SummaryView q_view{q_summary, q.vertex_labels()};
  GroupContext group(q_summary, g, dict);
  for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
    EvaluateWorld(q_view, group, it.choice(), it.probability(), tau, dict,
                  options, stats, &result);
  }
  return result;
}

namespace {

// Worlds sorted by descending probability reach both early exits sooner
// (the most probable worlds decide most of the mass). Enumeration order
// never changes the decision, only how early it is reached. Groups beyond
// this many worlds are processed in odometer order to avoid materializing
// a huge list.
constexpr int64_t kMaxSortedWorlds = 4096;

// The worlds of a group in descending probability: choices are stored
// back to back in one flat array, and the sort moves (probability, index)
// pairs only. std::sort's result depends only on the comparisons it makes,
// so ties land in the same order as when whole choice vectors were sorted.
class SortedWorlds {
 public:
  explicit SortedWorlds(const UncertainGraph& g) : n_(g.num_vertices()) {
    const size_t count = static_cast<size_t>(g.NumPossibleWorlds());
    choices_.reserve(count * n_);
    order_.reserve(count);
    for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
      order_.push_back(World{it.probability(), static_cast<int>(order_.size())});
      choices_.insert(choices_.end(), it.choice().begin(), it.choice().end());
    }
    std::sort(order_.begin(), order_.end(),
              [](const World& a, const World& b) {
                return a.probability > b.probability;
              });
  }

  size_t size() const { return order_.size(); }
  double probability(size_t rank) const { return order_[rank].probability; }
  // Copies the choice of the world at `rank` into *choice.
  void Choice(size_t rank, std::vector<int>* choice) const {
    const auto begin = choices_.begin() +
                       static_cast<ptrdiff_t>(order_[rank].index) * n_;
    choice->assign(begin, begin + n_);
  }

 private:
  struct World {
    double probability;
    int index;
  };
  int n_;
  std::vector<int> choices_;
  std::vector<World> order_;
};

}  // namespace

SimPResult VerifySimP(const LabeledGraph& q,
                      const std::vector<UncertainGraph>& groups,
                      double total_mass, int tau, double alpha,
                      const LabelDictionary& dict,
                      const ged::GedOptions& options, VerifyStats* stats) {
  VerifyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  SimPResult result;
  double remaining = total_mass;
  const ged::GraphSummary q_summary(q);
  const ged::SummaryView q_view{q_summary, q.vertex_labels()};

  auto process = [&](GroupContext& group, const std::vector<int>& choice,
                     double world_prob) -> bool {
    EvaluateWorld(q_view, group, choice, world_prob, tau, dict, options,
                  stats, &result);
    remaining -= world_prob;
    if (result.probability >= alpha - kSimPEpsilon) {
      result.early_accept = true;
      return true;
    }
    if (result.probability + remaining < alpha - kSimPEpsilon) {
      result.early_reject = true;
      return true;
    }
    return false;
  };

  std::vector<int> choice;
  for (const UncertainGraph& g : groups) {
    GroupContext group(q_summary, g, dict);
    if (g.NumPossibleWorlds() <= kMaxSortedWorlds) {
      const SortedWorlds worlds(g);
      for (size_t rank = 0; rank < worlds.size(); ++rank) {
        worlds.Choice(rank, &choice);
        if (process(group, choice, worlds.probability(rank))) return result;
      }
    } else {
      for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
        if (process(group, it.choice(), it.probability())) return result;
      }
    }
  }
  return result;
}

double UpperBoundSimPWithConstant(const LabeledGraph& q,
                                  const UncertainGraph& g, int tau,
                                  int structural_constant,
                                  const LabelDictionary& dict) {
  double mass = g.TotalMass();
  int need = structural_constant - tau;
  if (need <= 0) return mass;

  // E[Y * 1_group] = mass * sum_v (match_v / mass_v), with match_v the
  // probability mass of v's alternatives whose label matches some vertex
  // label of q (wildcard-aware).
  double expectation_ratio = 0.0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    double vertex_mass = 0.0;
    double match_mass = 0.0;
    for (const graph::LabelAlternative& alt : g.alternatives(v)) {
      vertex_mass += alt.prob;
      bool matches = false;
      for (int u = 0; u < q.num_vertices(); ++u) {
        if (dict.Matches(alt.label, q.vertex_label(u))) {
          matches = true;
          break;
        }
      }
      if (matches) match_mass += alt.prob;
    }
    SIMJ_CHECK_GT(vertex_mass, 0.0);
    expectation_ratio += match_mass / vertex_mass;
  }
  double markov = mass * expectation_ratio / need;
  return std::min(mass, markov);
}

double UpperBoundSimP(const LabeledGraph& q, const UncertainGraph& g,
                      int tau, const LabelDictionary& dict) {
  return UpperBoundSimPWithConstant(
      q, g, tau, ged::CssStructuralConstant(q, g, dict), dict);
}

namespace {

double TotalProbabilityBound(const LabeledGraph& q, const UncertainGraph& g,
                             int tau, int structural_constant,
                             const LabelDictionary& dict, int depth) {
  // Condition on the vertex with the most alternatives.
  int pivot = -1;
  size_t most = 1;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.alternatives(v).size() > most) {
      most = g.alternatives(v).size();
      pivot = v;
    }
  }
  if (depth <= 0 || pivot < 0) {
    if (structural_constant -
            ged::MaxCommonVertexLabels(q, g, dict) > tau) {
      return 0.0;
    }
    return UpperBoundSimPWithConstant(q, g, tau, structural_constant, dict);
  }
  double total = 0.0;
  for (int alt = 0; alt < static_cast<int>(g.alternatives(pivot).size());
       ++alt) {
    UncertainGraph restricted = g.RestrictVertex(pivot, {alt});
    total += TotalProbabilityBound(q, restricted, tau, structural_constant,
                                   dict, depth - 1);
  }
  return total;
}

}  // namespace

double UpperBoundSimPTotalProbability(const LabeledGraph& q,
                                      const UncertainGraph& g, int tau,
                                      const LabelDictionary& dict,
                                      int depth) {
  return TotalProbabilityBound(
      q, g, tau, ged::CssStructuralConstant(q, g, dict), dict, depth);
}

}  // namespace simj::core

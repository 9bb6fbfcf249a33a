// Exact minimum graph edit distance (GED) between certain graphs.
//
// Edit operations and unit costs (paper Section 3.1.2):
//   - insert/delete an isolated labeled vertex          cost 1
//   - insert/delete a labeled edge                      cost 1
//   - substitute a vertex or edge label                 cost 1
// Wildcard labels ("?x") substitute against anything at cost 0.
//
// The solver is the standard A* search over prefix vertex mappings with an
// admissible label-multiset heuristic (a relaxation of the bipartite
// heuristic of Riesen & Bunke). BoundedGed stops as soon as the optimum
// provably exceeds the threshold, which is what the join's verification
// phase needs. The optimal vertex mapping is returned because template
// generation (paper Section 2.1 Step 3) is built from it.
//
// Every kernel has two forms. The SummaryView form reads a GraphSummary
// (ged/graph_summary.h) plus a vertex-label array, so verification can
// evaluate possible worlds without materializing them; the LabeledGraph
// form summarizes its arguments and calls it. Each call works in flat
// buffers that it owns: the A* keeps its states in one arena and its
// label multisets as dense histograms (DESIGN.md §5).

#ifndef SIMJ_GED_EDIT_DISTANCE_H_
#define SIMJ_GED_EDIT_DISTANCE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ged/graph_summary.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "util/status.h"

namespace simj::ged {

struct GedResult {
  // The minimum edit distance.
  int distance = 0;
  // mapping[u] = vertex of `b` that vertex u of `a` maps to, or -1 when u
  // is deleted. Unmapped vertices of `b` are insertions.
  std::vector<int> mapping;
};

struct GedOptions {
  // Safety valve for pathological searches. When the A* search expands more
  // states than this, BoundedGed gives up and reports "above threshold"
  // while setting *aborted (callers track this in their statistics; the
  // join treats it as a non-match, which the benchmarks document).
  int64_t max_expansions = 5'000'000;
};

// Computes ged(a, b) if it is <= tau, returning std::nullopt otherwise.
// Requires tau >= 0 and |V(b)| <= 64.
[[nodiscard]] std::optional<GedResult> BoundedGed(const graph::LabeledGraph& a,
                                    const graph::LabeledGraph& b, int tau,
                                    const graph::LabelDictionary& dict,
                                    const GedOptions& options = GedOptions(),
                                    bool* aborted = nullptr);
[[nodiscard]] std::optional<GedResult> BoundedGed(
    const SummaryView& a, const SummaryView& b, int tau,
    const graph::LabelDictionary& dict, const GedOptions& options = GedOptions(),
    bool* aborted = nullptr);

// Computes the exact ged(a, b) with no threshold.
[[nodiscard]] GedResult ExactGed(const graph::LabeledGraph& a, const graph::LabeledGraph& b,
                   const graph::LabelDictionary& dict,
                   const GedOptions& options = GedOptions());

// Cost of substituting label `from` by label `to`: 0 when they match
// (equal or wildcard), else 1.
[[nodiscard]] inline int SubstitutionCost(const graph::LabelDictionary& dict,
                            graph::LabelId from, graph::LabelId to) {
  return dict.Matches(from, to) ? 0 : 1;
}

// Edit cost of transforming the multiset of parallel edge labels `from`
// into `to`: max(|from|, |to|) minus the zero-cost matchable pairs.
[[nodiscard]] int EdgeSetCost(const std::vector<graph::LabelId>& from,
                const std::vector<graph::LabelId>& to,
                const graph::LabelDictionary& dict);

// The same for label lists that are already sorted (GraphSummary pairs).
[[nodiscard]] inline int SortedEdgeSetCost(std::span<const graph::LabelId> from,
                                           std::span<const graph::LabelId> to,
                                           const graph::LabelDictionary& dict) {
  // Nearly every vertex pair carries zero or one edge.
  if (from.empty()) return static_cast<int>(to.size());
  if (to.empty()) return static_cast<int>(from.size());
  if (from.size() == 1 && to.size() == 1) {
    return SubstitutionCost(dict, from[0], to[0]);
  }
  return static_cast<int>(std::max(from.size(), to.size())) -
         graph::MatchableSortedLabels(from, to, dict);
}

// A trivially valid upper bound on ged(a, b): delete everything in `a`,
// insert everything in `b`. Used as the open threshold for ExactGed.
[[nodiscard]] int TrivialUpperBound(const graph::LabeledGraph& a,
                      const graph::LabeledGraph& b);

// Exact edit cost induced by a *given* vertex mapping (mapping[u] = vertex
// of `b`, or -1 to delete u; b-vertices not covered are insertions). Every
// mapping's cost upper-bounds the true GED; the optimal mapping attains it.
[[nodiscard]] int MappingCost(const graph::LabeledGraph& a, const graph::LabeledGraph& b,
                const std::vector<int>& mapping,
                const graph::LabelDictionary& dict);
[[nodiscard]] int MappingCost(const SummaryView& a, const SummaryView& b,
                              std::span<const int> mapping,
                              const graph::LabelDictionary& dict);

// Postcondition validator for a GED solver result (the debug build runs it
// after every successful BoundedGed/ExactGed call; tests call it directly).
// Checks, in order:
//   - the mapping is shaped like a function V(a) -> V(b) u {delete}: right
//     size, in-range targets, no two a-vertices sharing an image;
//   - the returned distance equals MappingCost(a, b, mapping) — the mapping
//     must *witness* the distance, not just accompany it;
//   - the sandwich CssLowerBound <= distance <= GreedyGedUpperBound, i.e.
//     the Lemma 1/2-style bounds bracket the claimed optimum.
// Returns the first violation as a descriptive non-OK status.
Status ValidateGedResult(const graph::LabeledGraph& a,
                         const graph::LabeledGraph& b, const GedResult& result,
                         const graph::LabelDictionary& dict);
Status ValidateGedResult(const SummaryView& a, const SummaryView& b,
                         const GedResult& result,
                         const graph::LabelDictionary& dict);

// Fast upper bound on ged(a, b): the cost of the assignment that minimizes
// per-vertex substitution + local edge-degree costs (the bipartite
// approximation of Riesen & Bunke), evaluated exactly via MappingCost.
// Verification uses it to accept worlds without running A*:
//   lower bound > tau  -> world fails;  upper bound <= tau -> world passes.
// When `mapping` is non-null it receives the witnessing vertex map.
[[nodiscard]] int GreedyGedUpperBound(const graph::LabeledGraph& a,
                        const graph::LabeledGraph& b,
                        const graph::LabelDictionary& dict,
                        std::vector<int>* mapping = nullptr);
[[nodiscard]] int GreedyGedUpperBound(const SummaryView& a, const SummaryView& b,
                                      const graph::LabelDictionary& dict,
                                      std::vector<int>* mapping = nullptr);

}  // namespace simj::ged

#endif  // SIMJ_GED_EDIT_DISTANCE_H_

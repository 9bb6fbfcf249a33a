// Lower bounds on graph edit distance.
//
// For certain graphs:
//   - CountLowerBound: vertex/edge count difference (Zeng et al. [29]).
//   - LabelMultisetLowerBound: label multiset difference (Zhao et al. [31]).
//   - CssLowerBound: the paper's common-structural-subgraph bound (Thm. 1),
//     provably at least as tight as the other two global filters (Thm. 2).
//
// For uncertain graphs:
//   - CssLowerBoundUncertain (Thm. 3): one bound valid for *every* possible
//     world, built from the maximum matching in the vertex-label bipartite
//     graph (Def. 10). This is the structural pruning rule of the join: if
//     the bound exceeds tau, SimP_tau(q, g) = 0 and the pair is pruned.

#ifndef SIMJ_GED_LOWER_BOUNDS_H_
#define SIMJ_GED_LOWER_BOUNDS_H_

#include <limits>
#include <span>

#include "ged/graph_summary.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::ged {

// | |V(a)| - |V(b)| | + | |E(a)| - |E(b)| |.
[[nodiscard]] int CountLowerBound(const graph::LabeledGraph& a,
                    const graph::LabeledGraph& b);

// max(|V(a)|,|V(b)|) - lambda_V + max(|E(a)|,|E(b)|) - lambda_E, where
// lambda are the wildcard-aware common label counts.
[[nodiscard]] int LabelMultisetLowerBound(const graph::LabeledGraph& a,
                            const graph::LabeledGraph& b,
                            const graph::LabelDictionary& dict);

// The c-star bound of Zeng et al. [29] for certain graphs: minimum-cost
// assignment between the graphs' stars (a vertex with its incident edge
// labels and neighbor labels), normalized by max(4, max_degree + 1). An
// n-gram-style filter, provided for the related-work ablations.
[[nodiscard]] int CStarLowerBound(const graph::LabeledGraph& a,
                    const graph::LabeledGraph& b,
                    const graph::LabelDictionary& dict);

// The CSS bound for certain graphs (Thm. 1):
//   |V(big)| + |E(big)| - lambda_E + ceil(dif/2) - lambda_V
// where `big` is the graph with more vertices (when the vertex counts tie,
// both orientations are valid and the larger bound is returned).
[[nodiscard]] int CssLowerBound(const graph::LabeledGraph& a, const graph::LabeledGraph& b,
                  const graph::LabelDictionary& dict);
[[nodiscard]] int CssLowerBound(const SummaryView& a, const SummaryView& b,
                                const graph::LabelDictionary& dict);

// lambda_V of two vertex-label lists (any order): the wildcard-aware
// common label count. CssLowerBound(a, b) equals
// max(0, CssStructuralConstant(a, b) - lambda_V(a, b)), so a caller that
// holds the constant of a possible-world group bounds each world with
// this alone.
[[nodiscard]] int MatchableVertexLabels(std::span<const graph::LabelId> a,
                                        std::span<const graph::LabelId> b,
                                        const graph::LabelDictionary& dict);

// Number of common vertex labels lambda_V(q, g) maximized over all possible
// worlds of g: maximum matching of the vertex-label bipartite graph
// (Def. 10). Exposed for tests and for the probabilistic bound.
[[nodiscard]] int MaxCommonVertexLabels(const graph::LabeledGraph& q,
                          const graph::UncertainGraph& g,
                          const graph::LabelDictionary& dict);

// The label-independent part of the uncertain CSS bound:
//   C(q, g) = |V| + |E| - lambda_E + ceil(dif/2)
// with |V| = max vertex count and |E| the edge count of the graph with more
// vertices (Thm. 3/4). The uncertain CSS bound is C(q, g) - lambda_V(q, g).
[[nodiscard]] int CssStructuralConstant(const graph::LabeledGraph& q,
                          const graph::UncertainGraph& g,
                          const graph::LabelDictionary& dict);
// The same from precomputed facts (e.g. GraphSummary::facts()).
[[nodiscard]] int CssStructuralConstant(const StructureFacts& q,
                                        const StructureFacts& g,
                                        const graph::LabelDictionary& dict);

// The CSS bound for an uncertain graph (Thm. 3): valid lower bound on
// ged(q, pw(g)) for every possible world pw(g).
//
// Threshold form: a caller that only asks whether the bound exceeds
// `stop_above` gets the exact bound whenever it is <= stop_above, and
// otherwise some value > stop_above that is still a valid lower bound
// (never above the exact one). It first tries the floor
// C(q, g) - min(|V(q)|, |V(g)|), which skips the lambda_V matching. The
// default computes the exact bound.
[[nodiscard]] int CssLowerBoundUncertain(
    const graph::LabeledGraph& q, const graph::UncertainGraph& g,
    const graph::LabelDictionary& dict,
    int stop_above = std::numeric_limits<int>::max());

}  // namespace simj::ged

#endif  // SIMJ_GED_LOWER_BOUNDS_H_

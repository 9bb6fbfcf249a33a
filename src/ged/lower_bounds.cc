#include "ged/lower_bounds.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "matching/bipartite.h"
#include "matching/hungarian.h"
#include "util/metrics.h"
#include "util/small_buffer.h"

namespace simj::ged {

namespace {

using graph::LabelCounts;
using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::LabelId;
using graph::UncertainGraph;

// ceil(dif / 2): DelEdge is an integer and DelEdge >= dif/2 (Lemma 4), so
// rounding up keeps the bound valid and slightly tightens it.
int HalfRoundedUp(int dif) { return (dif + 1) / 2; }

// The facts a graph keeps of itself (LabeledGraph::SortedDegrees and
// SortedEdgeLabels).
StructureFacts FactsOf(const LabeledGraph& g) {
  return {g.num_vertices(), g.num_edges(), g.SortedDegrees(),
          g.SortedEdgeLabels()};
}

}  // namespace

int CountLowerBound(const LabeledGraph& a, const LabeledGraph& b) {
  return std::abs(a.num_vertices() - b.num_vertices()) +
         std::abs(a.num_edges() - b.num_edges());
}

int LabelMultisetLowerBound(const LabeledGraph& a, const LabeledGraph& b,
                            const LabelDictionary& dict) {
  int lambda_v =
      MatchableLabelCount(a.VertexLabelCounts(), b.VertexLabelCounts(), dict);
  int lambda_e =
      MatchableLabelCount(a.EdgeLabelCounts(), b.EdgeLabelCounts(), dict);
  return std::max(a.num_vertices(), b.num_vertices()) - lambda_v +
         std::max(a.num_edges(), b.num_edges()) - lambda_e;
}

namespace {

// Labeled star of a vertex: its label plus the multisets of incident edge
// labels and neighbor labels.
struct Star {
  graph::LabelId center = graph::kInvalidLabel;
  LabelCounts edge_labels;
  LabelCounts leaf_labels;
  int degree = 0;
};

std::vector<Star> BuildStars(const LabeledGraph& g,
                             const LabelDictionary& /*dict*/) {
  std::vector<Star> stars(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) {
    stars[v].center = g.vertex_label(v);
    stars[v].degree = g.degree(v);
  }
  for (const graph::Edge& e : g.edges()) {
    ++stars[e.src].edge_labels[e.label];
    ++stars[e.src].leaf_labels[g.vertex_label(e.dst)];
    ++stars[e.dst].edge_labels[e.label];
    ++stars[e.dst].leaf_labels[g.vertex_label(e.src)];
  }
  return stars;
}

// Star edit distance lambda(s1, s2) in the spirit of [29]: center
// substitution + edge label multiset difference + leaf label multiset
// difference. (Our wildcard-aware matchable count can only lower the
// distance relative to the original definition, which keeps the normalized
// bound valid.)
int StarEditDistance(const Star& s1, const Star& s2,
                     const LabelDictionary& dict) {
  int cost = dict.Matches(s1.center, s2.center) ? 0 : 1;
  cost += std::max(s1.degree, s2.degree) -
          MatchableLabelCount(s1.edge_labels, s2.edge_labels, dict);
  cost += std::max(s1.degree, s2.degree) -
          MatchableLabelCount(s1.leaf_labels, s2.leaf_labels, dict);
  return cost;
}

}  // namespace

int CStarLowerBound(const LabeledGraph& a, const LabeledGraph& b,
                    const LabelDictionary& dict) {
  std::vector<Star> stars_a = BuildStars(a, dict);
  std::vector<Star> stars_b = BuildStars(b, dict);
  size_t n = std::max(stars_a.size(), stars_b.size());
  if (n == 0) return 0;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i < stars_a.size() && j < stars_b.size()) {
        cost[i][j] = StarEditDistance(stars_a[i], stars_b[j], dict);
      } else if (i < stars_a.size()) {
        cost[i][j] = 1.0 + 2.0 * stars_a[i].degree;
      } else if (j < stars_b.size()) {
        cost[i][j] = 1.0 + 2.0 * stars_b[j].degree;
      }
    }
  }
  double mu = matching::MinCostAssignment(cost);
  int max_degree = 0;
  for (const Star& s : stars_a) max_degree = std::max(max_degree, s.degree);
  for (const Star& s : stars_b) max_degree = std::max(max_degree, s.degree);
  int delta = std::max(4, max_degree + 1);
  return static_cast<int>(mu) / delta;
}

int MatchableVertexLabels(std::span<const LabelId> a,
                          std::span<const LabelId> b,
                          const LabelDictionary& dict) {
  SmallBuffer<LabelId, 32> sorted_a(a.size());
  SmallBuffer<LabelId, 32> sorted_b(b.size());
  std::copy(a.begin(), a.end(), sorted_a.begin());
  std::copy(b.begin(), b.end(), sorted_b.begin());
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  return graph::MatchableSortedLabels(sorted_a.span(), sorted_b.span(), dict);
}

// Thm. 1 is C - lambda_V with the C of Thm. 3 (a certain graph is an
// uncertain one with a single world): both orientations of a vertex-count
// tie are valid, and C keeps the tighter one.
int CssLowerBound(const LabeledGraph& a, const LabeledGraph& b,
                  const LabelDictionary& dict) {
  return std::max(0, CssStructuralConstant(FactsOf(a), FactsOf(b), dict) -
                         MatchableVertexLabels(a.vertex_labels(),
                                               b.vertex_labels(), dict));
}

int CssLowerBound(const SummaryView& a, const SummaryView& b,
                  const LabelDictionary& dict) {
  return std::max(0, CssStructuralConstant(a.graph.facts(), b.graph.facts(),
                                           dict) -
                         MatchableVertexLabels(a.labels, b.labels, dict));
}

int MaxCommonVertexLabels(const LabeledGraph& q, const UncertainGraph& g,
                          const LabelDictionary& dict) {
  const std::span<const LabelId> q_labels = q.vertex_labels();
  const int nq = q.num_vertices();
  SmallBuffer<uint8_t, 32> q_wild(nq);
  for (int u = 0; u < nq; ++u) q_wild[u] = dict.IsWildcard(q_labels[u]) ? 1 : 0;
  // g-vertex v links to q-vertex u when some alternative of v matches u.
  matching::BipartiteGraph bipartite(g.num_vertices(), nq);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (const graph::LabelAlternative& alt : g.alternatives(v)) {
      const bool alt_wild = dict.IsWildcard(alt.label);
      for (int u = 0; u < nq; ++u) {
        if (alt_wild || q_wild[u] || alt.label == q_labels[u]) {
          bipartite.AddEdge(v, u);
        }
      }
    }
  }
  return bipartite.MaxMatching();
}

int CssStructuralConstant(const StructureFacts& q, const StructureFacts& g,
                          const LabelDictionary& dict) {
  const int lambda_e = graph::MatchableSortedLabels(
      q.sorted_edge_labels, g.sorted_edge_labels, dict);
  auto oriented = [lambda_e](const StructureFacts& small,
                             const StructureFacts& big) {
    const int dif = graph::DegreeDistanceFromSorted(small.sorted_degrees,
                                                    big.sorted_degrees);
    return big.num_vertices + big.num_edges - lambda_e + HalfRoundedUp(dif);
  };
  if (q.num_vertices < g.num_vertices) return oriented(q, g);
  if (g.num_vertices < q.num_vertices) return oriented(g, q);
  return std::max(oriented(q, g), oriented(g, q));
}

int CssStructuralConstant(const LabeledGraph& q, const UncertainGraph& g,
                          const LabelDictionary& dict) {
  return CssStructuralConstant(FactsOf(q), FactsOf(g.structure()), dict);
}

int CssLowerBoundUncertain(const LabeledGraph& q, const UncertainGraph& g,
                           const LabelDictionary& dict, int stop_above) {
  // Callers time this bound themselves (the join's structural-filter
  // histogram); the exact call count stays here.
  static metrics::Counter& calls = metrics::Registry::Global().GetCounter(
      "simj_bound_css_uncertain_total");
  calls.Increment();
  const int structural = CssStructuralConstant(q, g, dict);
  // Each matched pair of the bipartite graph uses one vertex of either
  // side, so lambda_V <= min(|V(q)|, |V(g)|) and this floor needs no
  // matching.
  const int floor =
      structural - std::min(q.num_vertices(), g.num_vertices());
  if (floor > stop_above) return std::max(0, floor);
  return std::max(0, structural - MaxCommonVertexLabels(q, g, dict));
}

}  // namespace simj::ged

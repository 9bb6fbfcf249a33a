#include "ged/graph_summary.h"

#include <algorithm>

#include "util/check.h"

namespace simj::ged {

GraphSummary::GraphSummary(const graph::LabeledGraph& g)
    : sorted_degrees_(g.SortedDegrees()),
      sorted_edge_labels_(g.SortedEdgeLabels()) {
  const int n = g.num_vertices();
  degrees_.resize(n);
  for (int v = 0; v < n; ++v) degrees_[v] = g.degree(v);

  std::vector<graph::Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& x, const graph::Edge& y) {
              if (x.src != y.src) return x.src < y.src;
              if (x.dst != y.dst) return x.dst < y.dst;
              return x.label < y.label;
            });
  labels_.reserve(edges.size());
  row_begin_.assign(n + 1, 0);
  for (const graph::Edge& e : edges) {
    // Graphs from LabeledGraph::FromParts must pass Validate() first.
    SIMJ_CHECK(e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n);
    const int index = static_cast<int>(labels_.size());
    if (pairs_.empty() || pairs_.back().src != e.src ||
        pairs_.back().dst != e.dst) {
      pairs_.push_back(Pair{e.src, e.dst, index, index});
      ++row_begin_[e.src + 1];
    }
    labels_.push_back(e.label);
    pairs_.back().end = index + 1;
  }
  for (int v = 0; v < n; ++v) row_begin_[v + 1] += row_begin_[v];
}

std::span<const graph::LabelId> GraphSummary::EdgeLabels(int src,
                                                          int dst) const {
  for (int p = row_begin_[src]; p < row_begin_[src + 1]; ++p) {
    if (pairs_[p].dst == dst) return PairLabels(pairs_[p]);
  }
  return {};
}

}  // namespace simj::ged

// Per-graph facts for the GED kernels, computed once per graph.
//
// The kernels (A* GED, the greedy upper bound, MappingCost and the CSS
// bound) read a graph's degrees, its edge-label multiset and the labels of
// the parallel edges between each ordered vertex pair. None of these
// depend on vertex labels, and all possible worlds of one uncertain graph
// share them. A GraphSummary holds them in flat arrays; a SummaryView
// pairs it with one set of vertex labels. Verification builds one summary
// per candidate graph and one per possible-world group, then evaluates
// each world by writing its labels into a buffer instead of materializing
// a LabeledGraph.

#ifndef SIMJ_GED_GRAPH_SUMMARY_H_
#define SIMJ_GED_GRAPH_SUMMARY_H_

#include <span>
#include <vector>

#include "graph/label.h"
#include "graph/labeled_graph.h"

namespace simj::ged {

// The label-free facts the CSS bound reads (Thm. 1/3).
struct StructureFacts {
  int num_vertices = 0;
  int num_edges = 0;
  std::span<const int> sorted_degrees;  // non-increasing
  std::span<const graph::LabelId> sorted_edge_labels;
};

class GraphSummary {
 public:
  // An ordered vertex pair joined by at least one edge; its edge labels
  // are labels()[begin, end), sorted.
  struct Pair {
    int src = 0;
    int dst = 0;
    int begin = 0;
    int end = 0;
  };

  // Reads the topology and edge labels of `g`; vertex labels are ignored.
  // facts() views `g`'s own sorted sequences, so `g` must outlive the
  // summary.
  explicit GraphSummary(const graph::LabeledGraph& g);

  int num_vertices() const { return static_cast<int>(degrees_.size()); }
  int num_edges() const { return static_cast<int>(labels_.size()); }
  int degree(int v) const { return degrees_[v]; }

  StructureFacts facts() const {
    return {num_vertices(), num_edges(), sorted_degrees_, sorted_edge_labels_};
  }

  // Every joined pair, sorted by (src, dst).
  const std::vector<Pair>& pairs() const { return pairs_; }

  std::span<const graph::LabelId> PairLabels(const Pair& pair) const {
    return {labels_.data() + pair.begin,
            static_cast<size_t>(pair.end - pair.begin)};
  }
  // Sorted labels of the parallel edges src -> dst (empty when none).
  std::span<const graph::LabelId> EdgeLabels(int src, int dst) const;

 private:
  std::vector<int> degrees_;
  std::span<const int> sorted_degrees_;
  std::span<const graph::LabelId> sorted_edge_labels_;
  std::vector<Pair> pairs_;
  // The pairs leaving v are pairs_[row_begin_[v], row_begin_[v + 1]).
  std::vector<int> row_begin_;
  std::vector<graph::LabelId> labels_;
};

// A summarized graph with one assignment of vertex labels.
struct SummaryView {
  const GraphSummary& graph;
  std::span<const graph::LabelId> labels;  // labels[v] for every vertex

  int num_vertices() const { return graph.num_vertices(); }
  int num_edges() const { return graph.num_edges(); }
};

}  // namespace simj::ged

#endif  // SIMJ_GED_GRAPH_SUMMARY_H_

// Certain (deterministic) labeled directed graph.
//
// This is the representation of a SPARQL query graph and of a materialized
// possible world of an uncertain graph. Vertices carry exactly one label;
// edges are directed and labeled; parallel edges with distinct labels are
// allowed (two predicates between the same subject/object); self loops are
// not (RDF query graphs never need them and excluding them keeps the degree
// arithmetic of the CSS bound simple).

#ifndef SIMJ_GRAPH_LABELED_GRAPH_H_
#define SIMJ_GRAPH_LABELED_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "graph/label.h"
#include "util/status.h"

namespace simj::graph {

struct Edge {
  int src = 0;
  int dst = 0;
  LabelId label = kInvalidLabel;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class LabeledGraph {
 public:
  LabeledGraph() = default;

  // Adds a vertex and returns its index.
  int AddVertex(LabelId label);

  // Adds a directed edge src -> dst. Requires valid vertex indices and
  // src != dst.
  void AddEdge(int src, int dst, LabelId label);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  std::span<const LabelId> vertex_labels() const {
    return {packed_.data(), static_cast<size_t>(num_vertices_)};
  }
  LabelId vertex_label(int v) const {
    SIMJ_CHECK(v >= 0 && v < num_vertices());
    return packed_[v];
  }
  void set_vertex_label(int v, LabelId label) {
    SIMJ_CHECK(v >= 0 && v < num_vertices());
    packed_[v] = label;
  }

  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(int e) const { return edges_[e]; }

  // Total degree (in + out) of v.
  int degree(int v) const { return packed_[num_vertices_ + v]; }

  // Labels of all parallel edges src -> dst (usually 0 or 1 entries), by a
  // scan of edges().
  std::vector<LabelId> EdgeLabelsBetween(int src, int dst) const;

  // The per-graph facts of the CSS bound (Thm. 1/3), kept up to date by
  // AddVertex, AddEdge and FromParts: the total degrees sorted
  // non-increasingly, and the labels of edges() sorted.
  std::span<const int> SortedDegrees() const {
    return {packed_.data() + 2 * num_vertices_,
            static_cast<size_t>(num_vertices_)};
  }
  std::span<const LabelId> SortedEdgeLabels() const {
    return {packed_.data() + 3 * num_vertices_, edges_.size()};
  }

  // Multiset of vertex labels / edge labels.
  LabelCounts VertexLabelCounts() const;
  LabelCounts EdgeLabelCounts() const;

  // Full-graph invariant validation for API boundaries: every edge
  // references in-range endpoints, has no self loop and carries a label id
  // that is valid in `dict`; and every vertex label is a valid id. Returns the first violation as an
  // InvalidArgument status with the offending vertex/edge spelled out.
  // O(V + E) — call it when graphs cross a trust boundary (parsers,
  // RPC-style entry points); the join's debug build calls it per input.
  Status Validate(const LabelDictionary& dict) const;

  // Same, but skips vertex-label validity: the topology check used for
  // UncertainGraph::structure(), whose vertex labels are kInvalidLabel by
  // design.
  Status ValidateTopology(const LabelDictionary& dict) const;

  // Unchecked assembly from raw parts — the deserialization escape hatch.
  // Unlike AddVertex/AddEdge, this enforces nothing: the result may violate
  // every invariant, and callers MUST run Validate() before using the graph.
  // Construction itself stays memory-safe: edges with out-of-range
  // endpoints are kept in edges() but left out of the degrees (Validate
  // reports them).
  static LabeledGraph FromParts(std::vector<LabelId> vertex_labels,
                                std::vector<Edge> edges);

  // Human-readable dump, e.g. for test failures.
  std::string DebugString(const LabelDictionary& dict) const;

 private:
  // vertex_labels(), the degree of each vertex, SortedDegrees() and
  // SortedEdgeLabels(), in that order, in one exactly-sized buffer: many
  // small graphs stay alive at once, and growth slack would cost more than
  // the one reallocation per AddVertex/AddEdge.
  std::vector<int> packed_;
  std::vector<Edge> edges_;
  int num_vertices_ = 0;
};

// Degree distance dif(a, b) (paper Def. 9): with sorted degree sequences of
// the smaller graph (m vertices) and the larger graph, sum of
// positive-truncated differences d_i(small) - d_i(big) over i < m.
[[nodiscard]] int DegreeDistance(const LabeledGraph& a, const LabeledGraph& b);

// Same, from precomputed non-increasing degree sequences.
[[nodiscard]] int DegreeDistanceFromSorted(std::span<const int> small_sorted,
                                           std::span<const int> big_sorted);
[[nodiscard]] inline int DegreeDistanceFromSorted(
    const std::vector<int>& small_sorted, const std::vector<int>& big_sorted) {
  return DegreeDistanceFromSorted(std::span<const int>(small_sorted),
                                  std::span<const int>(big_sorted));
}

}  // namespace simj::graph

#endif  // SIMJ_GRAPH_LABELED_GRAPH_H_

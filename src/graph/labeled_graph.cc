#include "graph/labeled_graph.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <type_traits>

namespace simj::graph {

// packed_ holds vertex labels, degrees and edge labels in one int buffer.
static_assert(std::is_same_v<LabelId, int>);

int LabeledGraph::AddVertex(LabelId label) {
  // reserve() sizes the buffer exactly: no growth slack. A new vertex has
  // degree 0, the smallest, so it goes last among the sorted degrees, as
  // its label and its degree go last among theirs. Inserting from the back
  // leaves the earlier positions in place.
  const int n = num_vertices_;
  packed_.reserve(packed_.size() + 3);
  packed_.insert(packed_.begin() + 3 * n, 0);
  packed_.insert(packed_.begin() + 2 * n, 0);
  packed_.insert(packed_.begin() + n, label);
  return num_vertices_++;
}

void LabeledGraph::AddEdge(int src, int dst, LabelId label) {
  SIMJ_CHECK(src >= 0 && src < num_vertices());
  SIMJ_CHECK(dst >= 0 && dst < num_vertices());
  SIMJ_CHECK_NE(src, dst);
  const int n = num_vertices_;
  const auto sorted = packed_.begin() + 2 * n;
  const auto labels = sorted + n;
  for (int v : {src, dst}) {
    // Raising the first sorted degree equal to the old one keeps the
    // sequence non-increasing: every entry before it is already larger.
    int& vertex_degree = packed_[n + v];
    ++*std::lower_bound(sorted, labels, vertex_degree, std::greater<int>());
    ++vertex_degree;
  }
  const auto at = std::upper_bound(labels, packed_.end(), label) -
                  packed_.begin();
  packed_.reserve(packed_.size() + 1);
  packed_.insert(packed_.begin() + at, label);
  edges_.push_back(Edge{src, dst, label});
}

std::vector<LabelId> LabeledGraph::EdgeLabelsBetween(int src, int dst) const {
  std::vector<LabelId> labels;
  for (const Edge& e : edges_) {
    if (e.src == src && e.dst == dst) labels.push_back(e.label);
  }
  return labels;
}

LabelCounts LabeledGraph::VertexLabelCounts() const {
  LabelCounts counts;
  for (LabelId label : vertex_labels()) ++counts[label];
  return counts;
}

LabelCounts LabeledGraph::EdgeLabelCounts() const {
  LabelCounts counts;
  for (const Edge& e : edges_) ++counts[e.label];
  return counts;
}

namespace {

// "<what> <index>" without operator+ on temporaries.
std::string Describe(const char* what, int index) {
  std::string out = what;
  out += ' ';
  out += std::to_string(index);
  return out;
}

bool ValidLabel(LabelId label, const LabelDictionary& dict) {
  return label >= 0 && label < static_cast<LabelId>(dict.size());
}

}  // namespace

Status LabeledGraph::ValidateTopology(const LabelDictionary& dict) const {
  for (int e = 0; e < num_edges(); ++e) {
    const Edge& edge = edges_[e];
    if (edge.src < 0 || edge.src >= num_vertices() || edge.dst < 0 ||
        edge.dst >= num_vertices()) {
      return InvalidArgumentError(Describe("edge", e) +
                                  " has an out-of-range endpoint");
    }
    if (edge.src == edge.dst) {
      return InvalidArgumentError(Describe("edge", e) + " is a self loop");
    }
    if (!ValidLabel(edge.label, dict)) {
      return InvalidArgumentError(Describe("edge", e) +
                                  " carries an invalid label id");
    }
  }
  return Status::Ok();
}

LabeledGraph LabeledGraph::FromParts(std::vector<LabelId> vertex_labels,
                                     std::vector<Edge> edges) {
  LabeledGraph g;
  const int n = static_cast<int>(vertex_labels.size());
  g.num_vertices_ = n;
  g.edges_ = std::move(edges);
  g.packed_.assign(3 * n + g.edges_.size(), 0);
  std::copy(vertex_labels.begin(), vertex_labels.end(), g.packed_.begin());
  const auto degrees = g.packed_.begin() + n;
  const auto sorted = degrees + n;
  const auto labels = sorted + n;
  for (int e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges_[e];
    if (edge.src >= 0 && edge.src < n) ++degrees[edge.src];
    if (edge.dst >= 0 && edge.dst < n) ++degrees[edge.dst];
    labels[e] = edge.label;
  }
  std::copy(degrees, sorted, sorted);
  std::sort(sorted, labels, std::greater<int>());
  std::sort(labels, g.packed_.end());
  return g;
}

Status LabeledGraph::Validate(const LabelDictionary& dict) const {
  for (int v = 0; v < num_vertices(); ++v) {
    if (!ValidLabel(vertex_label(v), dict)) {
      return InvalidArgumentError(Describe("vertex", v) +
                                  " carries an invalid label id");
    }
  }
  return ValidateTopology(dict);
}

std::string LabeledGraph::DebugString(const LabelDictionary& dict) const {
  std::ostringstream out;
  out << "graph(|V|=" << num_vertices() << ", |E|=" << num_edges() << ")\n";
  for (int v = 0; v < num_vertices(); ++v) {
    out << "  v" << v << ": " << dict.Name(vertex_label(v)) << "\n";
  }
  for (const Edge& e : edges_) {
    out << "  v" << e.src << " -[" << dict.Name(e.label) << "]-> v" << e.dst
        << "\n";
  }
  return out.str();
}

int DegreeDistanceFromSorted(std::span<const int> small_sorted,
                             std::span<const int> big_sorted) {
  SIMJ_CHECK_LE(small_sorted.size(), big_sorted.size());
  int total = 0;
  for (size_t i = 0; i < small_sorted.size(); ++i) {
    int diff = small_sorted[i] - big_sorted[i];
    if (diff > 0) total += diff;
  }
  return total;
}

int DegreeDistance(const LabeledGraph& a, const LabeledGraph& b) {
  const LabeledGraph& small = a.num_vertices() <= b.num_vertices() ? a : b;
  const LabeledGraph& big = a.num_vertices() <= b.num_vertices() ? b : a;
  return DegreeDistanceFromSorted(small.SortedDegrees(), big.SortedDegrees());
}

}  // namespace simj::graph

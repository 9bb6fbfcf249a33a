#include "graph/labeled_graph.h"

#include <algorithm>
#include <sstream>

namespace simj::graph {

int LabeledGraph::AddVertex(LabelId label) {
  vertex_labels_.push_back(label);
  out_.emplace_back();
  in_.emplace_back();
  return num_vertices() - 1;
}

void LabeledGraph::AddEdge(int src, int dst, LabelId label) {
  SIMJ_CHECK(src >= 0 && src < num_vertices());
  SIMJ_CHECK(dst >= 0 && dst < num_vertices());
  SIMJ_CHECK_NE(src, dst);
  int e = num_edges();
  edges_.push_back(Edge{src, dst, label});
  out_[src].push_back(e);
  in_[dst].push_back(e);
}

std::vector<LabelId> LabeledGraph::EdgeLabelsBetween(int src, int dst) const {
  std::vector<LabelId> labels;
  for (int e : out_[src]) {
    if (edges_[e].dst == dst) labels.push_back(edges_[e].label);
  }
  return labels;
}

std::vector<int> LabeledGraph::SortedDegrees() const {
  std::vector<int> degrees(num_vertices());
  for (int v = 0; v < num_vertices(); ++v) degrees[v] = degree(v);
  std::sort(degrees.begin(), degrees.end(), std::greater<int>());
  return degrees;
}

LabelCounts LabeledGraph::VertexLabelCounts() const {
  LabelCounts counts;
  for (LabelId label : vertex_labels_) ++counts[label];
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
  // The adjacency lists must partition edges(): every edge appears exactly
  // once in its source's out-list and its destination's in-list.
  if (static_cast<int>(out_.size()) != num_vertices() ||
      static_cast<int>(in_.size()) != num_vertices()) {
    return InternalError("adjacency list count disagrees with vertex count");
  }
  std::vector<int> seen_out(num_edges(), 0);
  std::vector<int> seen_in(num_edges(), 0);
  for (int v = 0; v < num_vertices(); ++v) {
    for (int e : out_[v]) {
      if (e < 0 || e >= num_edges() || edges_[e].src != v || ++seen_out[e] > 1) {
        return InternalError(Describe("vertex", v) +
                             " has an inconsistent out-edge list");
      }
    }
    for (int e : in_[v]) {
      if (e < 0 || e >= num_edges() || edges_[e].dst != v || ++seen_in[e] > 1) {
        return InternalError(Describe("vertex", v) +
                             " has an inconsistent in-edge list");
      }
    }
  }
  for (int e = 0; e < num_edges(); ++e) {
    if (seen_out[e] != 1 || seen_in[e] != 1) {
      return InternalError(Describe("edge", e) +
                           " is missing from an adjacency list");
    }
  }
  return Status::Ok();
}

LabeledGraph LabeledGraph::FromParts(std::vector<LabelId> vertex_labels,
                                     std::vector<Edge> edges) {
  LabeledGraph g;
  g.vertex_labels_ = std::move(vertex_labels);
  g.edges_ = std::move(edges);
  g.out_.assign(g.vertex_labels_.size(), {});
  g.in_.assign(g.vertex_labels_.size(), {});
  const int n = g.num_vertices();
  for (int e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges_[e];
    if (edge.src >= 0 && edge.src < n) g.out_[edge.src].push_back(e);
    if (edge.dst >= 0 && edge.dst < n) g.in_[edge.dst].push_back(e);
  }
  return g;
}

Status LabeledGraph::Validate(const LabelDictionary& dict) const {
  for (int v = 0; v < num_vertices(); ++v) {
    if (!ValidLabel(vertex_labels_[v], dict)) {
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
    out << "  v" << v << ": " << dict.Name(vertex_labels_[v]) << "\n";
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

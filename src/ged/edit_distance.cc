#include "ged/edit_distance.h"

#include <algorithm>
#include <cstdlib>
#include <queue>

#include "ged/lower_bounds.h"
#include "matching/hungarian.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/small_buffer.h"

namespace simj::ged {

namespace {

using graph::LabeledGraph;
using graph::LabelDictionary;
using graph::LabelId;

// A* state: a-vertex order[depth - 1] is mapped to b-vertex `image` (-1 =
// deleted), and the earlier decisions are those of `parent`. States live in
// one per-call arena and name their parent by index, so a state costs a
// fixed 24 bytes however deep it is. `used` is a bitmask over b's vertices.
struct Node {
  int parent = -1;
  int image = -1;
  int g_cost = 0;  // cost of the decided prefix
  uint64_t used = 0;
};

// Open-list entry. The heap compares (f, depth) only, exactly as it did
// when it held whole states, so it pushes and pops states in the same
// order and the search returns the same mapping.
struct OpenEntry {
  int f = 0;  // g_cost + heuristic
  int depth = 0;
  int node = 0;
};

struct StateOrder {
  bool operator()(const OpenEntry& lhs, const OpenEntry& rhs) const {
    if (lhs.f != rhs.f) return lhs.f > rhs.f;   // min-heap on f
    return lhs.depth < rhs.depth;               // prefer deeper states
  }
};

// The distinct labels of a list, renumbered 0..size()-1 in sorted order.
class DenseLabels {
 public:
  explicit DenseLabels(std::vector<LabelId> labels) : labels_(std::move(labels)) {
    std::sort(labels_.begin(), labels_.end());
    labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  }
  int size() const { return static_cast<int>(labels_.size()); }
  int Id(LabelId label) const {
    return static_cast<int>(
        std::lower_bound(labels_.begin(), labels_.end(), label) -
        labels_.begin());
  }
  std::vector<uint8_t> WildcardFlags(const LabelDictionary& dict) const {
    std::vector<uint8_t> wild(labels_.size());
    for (size_t l = 0; l < labels_.size(); ++l) {
      wild[l] = dict.IsWildcard(labels_[l]) ? 1 : 0;
    }
    return wild;
  }

 private:
  std::vector<LabelId> labels_;
};

std::vector<LabelId> Concat(std::span<const LabelId> x,
                            std::span<const LabelId> y) {
  std::vector<LabelId> out(x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

// Dense n x n index of a summary's vertex pairs: pair id or -1.
std::vector<int> PairIndex(const GraphSummary& g) {
  const int n = g.num_vertices();
  std::vector<int> index(static_cast<size_t>(n) * n, -1);
  for (size_t p = 0; p < g.pairs().size(); ++p) {
    const GraphSummary::Pair& pair = g.pairs()[p];
    index[static_cast<size_t>(pair.src) * n + pair.dst] = static_cast<int>(p);
  }
  return index;
}

// An edge of b seen from one endpoint: the other endpoint and the dense
// edge label.
struct Incident {
  int other = 0;
  int label = 0;
};

// Everything the search reads, built once per BoundedGed call. Vertex and
// edge labels are renumbered densely (separately), so the heuristic's
// label multisets are plain histograms.
struct SearchContext {
  SearchContext(const SummaryView& a_in, const SummaryView& b_in,
                const LabelDictionary& dict_in)
      : a(a_in), b(b_in), dict(dict_in) {}

  SummaryView a;
  SummaryView b;
  const LabelDictionary& dict;
  int n = 0;
  int m = 0;
  std::vector<int> order;  // processing order of a's vertices

  std::vector<uint8_t> vertex_wild;  // per dense vertex label
  std::vector<uint8_t> edge_wild;    // per dense edge label
  std::vector<int> b_vertex_label;   // dense label of each b-vertex
  // pending_vertex[d * |vertex_wild| + l]: a-vertices labeled l that are
  // not yet decided at depth d (i.e. among order[d..]).
  std::vector<int> pending_vertex;
  // pending_edge[d * |edge_wild| + l]: a-edges labeled l with at least one
  // endpoint not yet decided at depth d; pending_edge_total[d] sums a row.
  std::vector<int> pending_edge;
  std::vector<int> pending_edge_total;
  // b's edges: `b_edges` with dense labels, and per vertex v the edges
  // touching it, b_incident[b_incident_begin[v] .. b_incident_begin[v+1]).
  std::vector<graph::Edge> b_edges;
  std::vector<int> b_incident_begin;
  std::vector<Incident> b_incident;
  // Vertex pairs of a and b for O(1) lookup (see PairIndex).
  std::vector<int> a_pair;
  std::vector<int> b_pair;
  // sub[u * m + v]: substitution cost of a-vertex u by b-vertex v.
  std::vector<uint8_t> sub;

  int num_vertex_labels() const { return static_cast<int>(vertex_wild.size()); }
  int num_edge_labels() const { return static_cast<int>(edge_wild.size()); }
};

SearchContext BuildContext(const SummaryView& a, const SummaryView& b,
                           const LabelDictionary& dict) {
  SearchContext ctx(a, b, dict);
  const int n = a.num_vertices();
  const int m = b.num_vertices();
  ctx.n = n;
  ctx.m = m;
  ctx.order.resize(n);
  for (int i = 0; i < n; ++i) ctx.order[i] = i;
  // High-degree vertices first: they constrain edge costs early.
  std::sort(ctx.order.begin(), ctx.order.end(), [&](int x, int y) {
    if (a.graph.degree(x) != a.graph.degree(y)) {
      return a.graph.degree(x) > a.graph.degree(y);
    }
    return x < y;
  });
  std::vector<int> position_in_order(n, 0);
  for (int d = 0; d < n; ++d) position_in_order[ctx.order[d]] = d;

  const DenseLabels vertex_labels(Concat(a.labels, b.labels));
  const DenseLabels edge_labels(Concat(a.graph.facts().sorted_edge_labels,
                                       b.graph.facts().sorted_edge_labels));
  ctx.vertex_wild = vertex_labels.WildcardFlags(dict);
  ctx.edge_wild = edge_labels.WildcardFlags(dict);
  const int lv = vertex_labels.size();
  const int le = edge_labels.size();

  ctx.pending_vertex.assign(static_cast<size_t>(n + 1) * lv, 0);
  for (int d = n - 1; d >= 0; --d) {
    std::copy_n(ctx.pending_vertex.begin() + static_cast<ptrdiff_t>(d + 1) * lv,
                lv, ctx.pending_vertex.begin() + static_cast<ptrdiff_t>(d) * lv);
    ++ctx.pending_vertex[static_cast<size_t>(d) * lv +
                         vertex_labels.Id(a.labels[ctx.order[d]])];
  }

  // An a-edge is pending at depth d iff either endpoint is decided at
  // position >= d, i.e. for d <= the later endpoint's position.
  ctx.pending_edge.assign(static_cast<size_t>(n + 1) * le, 0);
  ctx.pending_edge_total.assign(n + 1, 0);
  for (const GraphSummary::Pair& pair : a.graph.pairs()) {
    const int last = std::max(position_in_order[pair.src],
                              position_in_order[pair.dst]);
    for (LabelId label : a.graph.PairLabels(pair)) {
      const int id = edge_labels.Id(label);
      for (int d = 0; d <= last; ++d) {
        ++ctx.pending_edge[static_cast<size_t>(d) * le + id];
        ++ctx.pending_edge_total[d];
      }
    }
  }

  ctx.b_vertex_label.resize(m);
  for (int v = 0; v < m; ++v) ctx.b_vertex_label[v] = vertex_labels.Id(b.labels[v]);
  ctx.b_incident_begin.assign(m + 1, 0);
  for (const GraphSummary::Pair& pair : b.graph.pairs()) {
    for (LabelId label : b.graph.PairLabels(pair)) {
      ctx.b_edges.push_back(graph::Edge{pair.src, pair.dst, edge_labels.Id(label)});
      ++ctx.b_incident_begin[pair.src + 1];
      ++ctx.b_incident_begin[pair.dst + 1];
    }
  }
  for (int v = 0; v < m; ++v) ctx.b_incident_begin[v + 1] += ctx.b_incident_begin[v];
  ctx.b_incident.resize(ctx.b_incident_begin[m]);
  std::vector<int> next_slot(ctx.b_incident_begin.begin(),
                             ctx.b_incident_begin.end() - 1);
  for (const graph::Edge& e : ctx.b_edges) {
    ctx.b_incident[next_slot[e.src]++] = Incident{e.dst, e.label};
    ctx.b_incident[next_slot[e.dst]++] = Incident{e.src, e.label};
  }

  ctx.a_pair = PairIndex(a.graph);
  ctx.b_pair = PairIndex(b.graph);
  ctx.sub.resize(static_cast<size_t>(n) * m);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < m; ++v) {
      ctx.sub[static_cast<size_t>(u) * m + v] =
          static_cast<uint8_t>(SubstitutionCost(dict, a.labels[u], b.labels[v]));
    }
  }
  return ctx;
}

// Label histograms of the part of b that a state has not used yet: its
// unused vertices, and its edges with at least one unused endpoint.
struct PendingB {
  std::vector<int> vertex_counts;
  std::vector<int> edge_counts;
  int vertices = 0;
  int edges = 0;

  explicit PendingB(const SearchContext& ctx)
      : vertex_counts(ctx.num_vertex_labels()),
        edge_counts(ctx.num_edge_labels()) {}

  void Fill(const SearchContext& ctx, uint64_t used) {
    std::fill(vertex_counts.begin(), vertex_counts.end(), 0);
    std::fill(edge_counts.begin(), edge_counts.end(), 0);
    vertices = 0;
    edges = 0;
    for (int v = 0; v < ctx.m; ++v) {
      if ((used >> v) & 1) continue;
      ++vertex_counts[ctx.b_vertex_label[v]];
      ++vertices;
    }
    for (const graph::Edge& e : ctx.b_edges) {
      if (((used >> e.src) & 1) && ((used >> e.dst) & 1)) continue;
      ++edge_counts[e.label];
      ++edges;
    }
  }

  // Moves b-vertex v (unused in `used`) into the used part (sign = -1) or
  // back (sign = +1): v itself, and its edges whose other end is used.
  void Shift(const SearchContext& ctx, uint64_t used, int v, int sign) {
    vertex_counts[ctx.b_vertex_label[v]] += sign;
    vertices += sign;
    for (int i = ctx.b_incident_begin[v]; i < ctx.b_incident_begin[v + 1]; ++i) {
      const Incident& inc = ctx.b_incident[i];
      if ((used >> inc.other) & 1) {
        edge_counts[inc.label] += sign;
        edges += sign;
      }
    }
  }
};

// Admissible heuristic: label-multiset relaxation over the not-yet-decided
// part of `a` (a-vertices order[depth..]) and the not-yet-used part of `b`.
int Heuristic(const SearchContext& ctx, int depth, const PendingB& pending) {
  const int lv = ctx.num_vertex_labels();
  const int le = ctx.num_edge_labels();
  const int vertex_cost =
      std::max(ctx.n - depth, pending.vertices) -
      graph::MatchableLabelHistograms(
          ctx.pending_vertex.data() + static_cast<size_t>(depth) * lv,
          pending.vertex_counts.data(), ctx.vertex_wild);
  const int edge_cost =
      std::max(ctx.pending_edge_total[depth], pending.edges) -
      graph::MatchableLabelHistograms(
          ctx.pending_edge.data() + static_cast<size_t>(depth) * le,
          pending.edge_counts.data(), ctx.edge_wild);
  return vertex_cost + edge_cost;
}

int PairSize(const GraphSummary& g, int pair) {
  if (pair < 0) return 0;
  const GraphSummary::Pair& p = g.pairs()[pair];
  return p.end - p.begin;
}

// Edit cost between the edges of one a-pair and one b-pair (ids or -1).
int PairCost(const SearchContext& ctx, int a_pair, int b_pair) {
  if (a_pair < 0) return PairSize(ctx.b.graph, b_pair);
  if (b_pair < 0) return PairSize(ctx.a.graph, a_pair);
  return SortedEdgeSetCost(ctx.a.graph.PairLabels(ctx.a.graph.pairs()[a_pair]),
                           ctx.b.graph.PairLabels(ctx.b.graph.pairs()[b_pair]),
                           ctx.dict);
}

// Incremental cost of deciding a-vertex `u` (at `depth`) to map to b-vertex
// `v` (or -1): vertex substitution/deletion plus edge costs against every
// previously decided a-vertex; assignment[d] is the image of order[d].
int ExtensionCost(const SearchContext& ctx, const int* assignment, int depth,
                  int u, int v) {
  int cost = v < 0 ? 1 : ctx.sub[static_cast<size_t>(u) * ctx.m + v];
  const int n = ctx.n;
  const int m = ctx.m;
  for (int d = 0; d < depth; ++d) {
    const int prev_u = ctx.order[d];
    const int prev_v = assignment[d];
    // Both directions between the pair.
    const int a_out = ctx.a_pair[static_cast<size_t>(u) * n + prev_u];
    const int a_in = ctx.a_pair[static_cast<size_t>(prev_u) * n + u];
    if (v < 0 || prev_v < 0) {
      cost += PairSize(ctx.a.graph, a_out) + PairSize(ctx.a.graph, a_in);
      continue;
    }
    cost += PairCost(ctx, a_out, ctx.b_pair[static_cast<size_t>(v) * m + prev_v]);
    cost += PairCost(ctx, a_in, ctx.b_pair[static_cast<size_t>(prev_v) * m + v]);
  }
  return cost;
}

// Flushes a locally accumulated count into a shared counter on scope exit,
// so the A* hot loop touches no atomics per expansion.
class CounterFlusher {
 public:
  CounterFlusher(metrics::Counter& counter, const int64_t& value)
      : counter_(counter), value_(value) {}
  ~CounterFlusher() {
    if (value_ > 0) counter_.Add(value_);
  }

 private:
  metrics::Counter& counter_;
  const int64_t& value_;
};

// Publishes a locally tracked high-water mark into a gauge on scope exit
// (one UpdateMax per call, whichever return path is taken).
class GaugeMaxFlusher {
 public:
  GaugeMaxFlusher(metrics::Gauge& gauge, const size_t& value)
      : gauge_(gauge), value_(value) {}
  ~GaugeMaxFlusher() { gauge_.UpdateMax(static_cast<double>(value_)); }

 private:
  metrics::Gauge& gauge_;
  const size_t& value_;
};

SummaryView ViewOf(const GraphSummary& summary, const LabeledGraph& g) {
  return SummaryView{summary, g.vertex_labels()};
}

}  // namespace

int EdgeSetCost(const std::vector<LabelId>& from,
                const std::vector<LabelId>& to,
                const LabelDictionary& dict) {
  SmallBuffer<LabelId, 16> sorted_from(from.size());
  SmallBuffer<LabelId, 16> sorted_to(to.size());
  std::copy(from.begin(), from.end(), sorted_from.begin());
  std::copy(to.begin(), to.end(), sorted_to.begin());
  std::sort(sorted_from.begin(), sorted_from.end());
  std::sort(sorted_to.begin(), sorted_to.end());
  return SortedEdgeSetCost(sorted_from.span(), sorted_to.span(), dict);
}

int TrivialUpperBound(const LabeledGraph& a, const LabeledGraph& b) {
  return a.num_vertices() + a.num_edges() + b.num_vertices() + b.num_edges();
}

std::optional<GedResult> BoundedGed(const LabeledGraph& a,
                                    const LabeledGraph& b, int tau,
                                    const LabelDictionary& dict,
                                    const GedOptions& options,
                                    bool* aborted) {
  const GraphSummary summary_a(a);
  const GraphSummary summary_b(b);
  return BoundedGed(ViewOf(summary_a, a), ViewOf(summary_b, b), tau, dict,
                    options, aborted);
}

std::optional<GedResult> BoundedGed(const SummaryView& a, const SummaryView& b,
                                    int tau, const LabelDictionary& dict,
                                    const GedOptions& options,
                                    bool* aborted) {
  SIMJ_CHECK_GE(tau, 0);
  SIMJ_CHECK_LE(b.num_vertices(), 64);
  static metrics::Counter& calls_total =
      metrics::Registry::Global().GetCounter("simj_ged_calls_total");
  static metrics::Counter& expansions_total =
      metrics::Registry::Global().GetCounter("simj_ged_expansions_total");
  static metrics::Counter& aborted_total =
      metrics::Registry::Global().GetCounter("simj_ged_aborted_total");
  static metrics::Gauge& open_list_peak =
      metrics::Registry::Global().GetGauge("simj_ged_open_list_peak");
  calls_total.Increment();
  if (aborted != nullptr) *aborted = false;

  const int n = a.num_vertices();
  if (n == 0) {
    // Everything in b must be inserted.
    int distance = b.num_vertices() + b.num_edges();
    if (distance > tau) return std::nullopt;
    return GedResult{distance, {}};
  }

  const SearchContext ctx = BuildContext(a, b, dict);
  PendingB pending(ctx);
  std::vector<int> assignment(n);  // images of order[0..depth) of a state
  std::vector<Node> nodes;
  std::priority_queue<OpenEntry, std::vector<OpenEntry>, StateOrder> open;
  {
    pending.Fill(ctx, 0);
    const int root_f = Heuristic(ctx, 0, pending);
    if (root_f > tau) return std::nullopt;
    nodes.push_back(Node{});
    open.push(OpenEntry{root_f, 0, 0});
  }

  int64_t expansions = 0;
  CounterFlusher flush_expansions(expansions_total, expansions);
  size_t open_peak = open.size();
  GaugeMaxFlusher flush_open_peak(open_list_peak, open_peak);
  while (!open.empty()) {
    const OpenEntry top = open.top();
    open.pop();
    if (top.f > tau) return std::nullopt;  // best possible exceeds tau
    const Node state = nodes[top.node];

    if (top.depth == n) {
      // Completion cost was already folded in when the last vertex was
      // decided (see below), so this state is a full solution.
      GedResult result;
      result.distance = state.g_cost;
      result.mapping.assign(n, -1);
      for (int k = top.node, d = n - 1; d >= 0; k = nodes[k].parent, --d) {
        result.mapping[ctx.order[d]] = nodes[k].image;
      }
      // Debug-mode postcondition: the mapping witnesses the distance and
      // the distance sits inside the lower/upper bound sandwich.
      SIMJ_DCHECK_OK(ValidateGedResult(a, b, result, dict));
      SIMJ_DCHECK_LE(result.distance, tau);
      return result;
    }

    if (++expansions > options.max_expansions) {
      aborted_total.Increment();
      if (aborted != nullptr) *aborted = true;
      return std::nullopt;
    }

    for (int k = top.node, d = top.depth - 1; d >= 0; k = nodes[k].parent, --d) {
      assignment[d] = nodes[k].image;
    }
    pending.Fill(ctx, state.used);
    const int depth = top.depth + 1;
    const int u = ctx.order[top.depth];
    // Candidate images: every unused b-vertex, plus deletion.
    for (int v = -1; v < ctx.m; ++v) {
      if (v >= 0 && ((state.used >> v) & 1)) continue;
      int g_cost =
          state.g_cost + ExtensionCost(ctx, assignment.data(), top.depth, u, v);
      if (v >= 0) pending.Shift(ctx, state.used, v, -1);
      int f;
      if (depth == n) {
        // Insert every unused b-vertex and every b-edge with an unused
        // endpoint.
        g_cost += pending.vertices + pending.edges;
        f = g_cost;
      } else {
        f = g_cost + Heuristic(ctx, depth, pending);
      }
      if (v >= 0) pending.Shift(ctx, state.used, v, +1);
      if (f <= tau) {
        const uint64_t used = state.used | (v >= 0 ? (uint64_t{1} << v) : 0);
        nodes.push_back(Node{top.node, v, g_cost, used});
        open.push(OpenEntry{f, depth, static_cast<int>(nodes.size()) - 1});
        if (open.size() > open_peak) open_peak = open.size();
      }
    }
  }
  return std::nullopt;
}

int MappingCost(const LabeledGraph& a, const LabeledGraph& b,
                const std::vector<int>& mapping,
                const LabelDictionary& dict) {
  const GraphSummary summary_a(a);
  const GraphSummary summary_b(b);
  return MappingCost(ViewOf(summary_a, a), ViewOf(summary_b, b), mapping,
                     dict);
}

int MappingCost(const SummaryView& a, const SummaryView& b,
                std::span<const int> mapping, const LabelDictionary& dict) {
  const int n = a.num_vertices();
  const int m = b.num_vertices();
  SIMJ_CHECK_EQ(static_cast<int>(mapping.size()), n);
  int cost = 0;
  SmallBuffer<int, 64> preimage(m, -1);
  for (int u = 0; u < n; ++u) {
    int v = mapping[u];
    if (v < 0) {
      cost += 1;  // delete u
      continue;
    }
    SIMJ_CHECK(v < m);
    SIMJ_CHECK(preimage[v] < 0);
    preimage[v] = u;
    cost += SubstitutionCost(dict, a.labels[u], b.labels[v]);
  }
  for (int v = 0; v < m; ++v) {
    if (preimage[v] < 0) cost += 1;  // insert v
  }
  // Edge costs: every joined a-pair against its image pair; b-pairs whose
  // preimage pair is not joined are insertions, as are b-edges touching an
  // uncovered vertex.
  for (const GraphSummary::Pair& pair : a.graph.pairs()) {
    const int v1 = mapping[pair.src];
    const int v2 = mapping[pair.dst];
    if (v1 < 0 || v2 < 0) {
      cost += pair.end - pair.begin;
    } else {
      cost += SortedEdgeSetCost(a.graph.PairLabels(pair),
                                b.graph.EdgeLabels(v1, v2), dict);
    }
  }
  for (const GraphSummary::Pair& pair : b.graph.pairs()) {
    const int u1 = preimage[pair.src];
    const int u2 = preimage[pair.dst];
    if (u1 < 0 || u2 < 0 || a.graph.EdgeLabels(u1, u2).empty()) {
      cost += pair.end - pair.begin;
    }
  }
  return cost;
}

int GreedyGedUpperBound(const LabeledGraph& a, const LabeledGraph& b,
                        const LabelDictionary& dict,
                        std::vector<int>* mapping_out) {
  const GraphSummary summary_a(a);
  const GraphSummary summary_b(b);
  return GreedyGedUpperBound(ViewOf(summary_a, a), ViewOf(summary_b, b), dict,
                             mapping_out);
}

int GreedyGedUpperBound(const SummaryView& a, const SummaryView& b,
                        const LabelDictionary& dict,
                        std::vector<int>* mapping_out) {
  const int n = a.num_vertices();
  const int m = b.num_vertices();
  if (n == 0 || m == 0) {
    if (mapping_out != nullptr) mapping_out->assign(n, -1);
    return n + a.num_edges() + m + b.num_edges();
  }

  // Assignment over a square matrix of size n + m: rows 0..n-1 are
  // a-vertices, rows n.. are "insert" placeholders; columns 0..m-1 are
  // b-vertices, columns m.. are "delete" placeholders.
  const int size = n + m;
  SmallBuffer<double, 1024> cost(static_cast<size_t>(size) * size, 0.0);
  for (int u = 0; u < n; ++u) {
    double* row = cost.data() + static_cast<size_t>(u) * size;
    for (int v = 0; v < m; ++v) {
      // Substitution estimate: label cost plus half the degree difference
      // (each unmatched incident edge will cost at least an op somewhere).
      row[v] = SubstitutionCost(dict, a.labels[u], b.labels[v]) +
               0.5 * std::abs(a.graph.degree(u) - b.graph.degree(v));
    }
    for (int v = m; v < size; ++v) {
      row[v] = 1.0 + a.graph.degree(u);  // delete u and its edges
    }
  }
  for (int u = n; u < size; ++u) {
    double* row = cost.data() + static_cast<size_t>(u) * size;
    for (int v = 0; v < m; ++v) {
      row[v] = 1.0 + b.graph.degree(v);  // insert v and its edges
    }
  }
  SmallBuffer<int, 32> assignment(size);
  matching::MinCostAssignment(cost.span(), size, size, assignment.span());
  SmallBuffer<int, 32> mapping(n, -1);
  for (int u = 0; u < n; ++u) {
    if (assignment[u] < m) mapping[u] = assignment[u];
  }
  const int upper = MappingCost(a, b, mapping.span(), dict);
  if (mapping_out != nullptr) mapping_out->assign(mapping.begin(), mapping.end());
  return upper;
}

GedResult ExactGed(const LabeledGraph& a, const LabeledGraph& b,
                   const LabelDictionary& dict, const GedOptions& options) {
  std::optional<GedResult> result =
      BoundedGed(a, b, TrivialUpperBound(a, b), dict, options);
  SIMJ_CHECK(result.has_value());
  return *std::move(result);
}

Status ValidateGedResult(const LabeledGraph& a, const LabeledGraph& b,
                         const GedResult& result,
                         const LabelDictionary& dict) {
  const GraphSummary summary_a(a);
  const GraphSummary summary_b(b);
  return ValidateGedResult(ViewOf(summary_a, a), ViewOf(summary_b, b), result,
                           dict);
}

Status ValidateGedResult(const SummaryView& a, const SummaryView& b,
                         const GedResult& result,
                         const LabelDictionary& dict) {
  if (static_cast<int>(result.mapping.size()) != a.num_vertices()) {
    return InternalError("GED mapping size disagrees with |V(a)|");
  }
  std::vector<bool> used(b.num_vertices(), false);
  for (int u = 0; u < a.num_vertices(); ++u) {
    int v = result.mapping[u];
    if (v < -1 || v >= b.num_vertices()) {
      std::string message = "GED mapping sends vertex ";
      message += std::to_string(u);
      message += " to out-of-range target ";
      message += std::to_string(v);
      return InternalError(std::move(message));
    }
    if (v >= 0) {
      if (used[v]) {
        std::string message = "GED mapping is not injective: b-vertex ";
        message += std::to_string(v);
        message += " has two preimages";
        return InternalError(std::move(message));
      }
      used[v] = true;
    }
  }
  int witnessed = MappingCost(a, b, result.mapping, dict);
  if (witnessed != result.distance) {
    std::string message = "GED mapping witnesses cost ";
    message += std::to_string(witnessed);
    message += " but the solver reported distance ";
    message += std::to_string(result.distance);
    return InternalError(std::move(message));
  }
  int lower = CssLowerBound(a, b, dict);
  if (result.distance < lower) {
    std::string message = "reported GED ";
    message += std::to_string(result.distance);
    message += " is below the CSS lower bound ";
    message += std::to_string(lower);
    return InternalError(std::move(message));
  }
  int upper = GreedyGedUpperBound(a, b, dict);
  if (result.distance > upper) {
    std::string message = "reported GED ";
    message += std::to_string(result.distance);
    message += " exceeds the greedy upper bound ";
    message += std::to_string(upper);
    return InternalError(std::move(message));
  }
  return Status::Ok();
}

}  // namespace simj::ged

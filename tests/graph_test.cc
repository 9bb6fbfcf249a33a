#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace simj::graph {
namespace {

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary dict;
  LabelId a = dict.Intern("Actor");
  LabelId b = dict.Intern("Actor");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.Name(a), "Actor");
  EXPECT_EQ(dict.size(), 1);
}

TEST(LabelDictionaryTest, FindReturnsInvalidForUnknown) {
  LabelDictionary dict;
  dict.Intern("Actor");
  EXPECT_EQ(dict.Find("Professor"), kInvalidLabel);
  EXPECT_NE(dict.Find("Actor"), kInvalidLabel);
}

TEST(LabelDictionaryTest, WildcardDetection) {
  LabelDictionary dict;
  LabelId var = dict.Intern("?x");
  LabelId plain = dict.Intern("City");
  EXPECT_TRUE(dict.IsWildcard(var));
  EXPECT_FALSE(dict.IsWildcard(plain));
}

TEST(LabelDictionaryTest, MatchesIsWildcardAware) {
  LabelDictionary dict;
  LabelId var = dict.Intern("?x");
  LabelId city = dict.Intern("City");
  LabelId state = dict.Intern("State");
  EXPECT_TRUE(dict.Matches(city, city));
  EXPECT_FALSE(dict.Matches(city, state));
  EXPECT_TRUE(dict.Matches(var, city));
  EXPECT_TRUE(dict.Matches(state, var));
  EXPECT_TRUE(dict.Matches(var, var));
}

TEST(MatchableLabelCountTest, PlainMultisetIntersection) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId c = dict.Intern("C");
  LabelCounts left{{a, 2}, {b, 1}};
  LabelCounts right{{a, 1}, {b, 3}, {c, 1}};
  EXPECT_EQ(MatchableLabelCount(left, right, dict), 2);  // one A, one B
}

TEST(MatchableLabelCountTest, WildcardsSoakUpLeftovers) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId var = dict.Intern("?x");
  // left: {A, ?x, ?x}; right: {B, B, A}
  LabelCounts left{{a, 1}, {var, 2}};
  LabelCounts right{{b, 2}, {a, 1}};
  // A matches A; the two wildcards match the two Bs.
  EXPECT_EQ(MatchableLabelCount(left, right, dict), 3);
}

TEST(MatchableLabelCountTest, WildcardOnBothSides) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId var1 = dict.Intern("?x");
  LabelId var2 = dict.Intern("?y");
  LabelCounts left{{var1, 2}};
  LabelCounts right{{a, 1}, {var2, 2}};
  // Both wildcards on the left match; capped by left size.
  EXPECT_EQ(MatchableLabelCount(left, right, dict), 2);
}

// The flat forms (sorted arrays, dense histograms) against the map-based
// reference on seeded random multisets with wildcards on both sides.
TEST(MatchableLabelCountTest, FlatKernelsEqualTheReference) {
  LabelDictionary dict;
  std::vector<LabelId> pool = testing::TestLabels(dict, 4);
  pool.push_back(dict.Intern("?a"));
  pool.push_back(dict.Intern("?b"));
  std::vector<uint8_t> wild(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    wild[i] = dict.IsWildcard(pool[i]) ? 1 : 0;
  }
  Rng rng(20261018);
  for (int trial = 0; trial < 3000; ++trial) {
    // Dense id = index into `pool`.
    auto draw = [&]() {
      std::vector<int> ids(rng.Uniform(0, 9));
      for (int& id : ids) id = static_cast<int>(rng.Uniform(0, pool.size() - 1));
      return ids;
    };
    const std::vector<int> a_ids = draw();
    const std::vector<int> b_ids = draw();
    LabelCounts a_counts;
    LabelCounts b_counts;
    std::vector<LabelId> a_sorted;
    std::vector<LabelId> b_sorted;
    std::vector<int> a_hist(pool.size(), 0);
    std::vector<int> b_hist(pool.size(), 0);
    for (int id : a_ids) {
      ++a_counts[pool[id]];
      a_sorted.push_back(pool[id]);
      ++a_hist[id];
    }
    for (int id : b_ids) {
      ++b_counts[pool[id]];
      b_sorted.push_back(pool[id]);
      ++b_hist[id];
    }
    std::sort(a_sorted.begin(), a_sorted.end());
    std::sort(b_sorted.begin(), b_sorted.end());
    const int reference = MatchableLabelCount(a_counts, b_counts, dict);
    EXPECT_EQ(MatchableSortedLabels(a_sorted, b_sorted, dict), reference);
    EXPECT_EQ(MatchableLabelHistograms(a_hist.data(), b_hist.data(), wild),
              reference);
  }
}

TEST(MatchableLabelCountTest, EmptySides) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelCounts left{{a, 1}};
  LabelCounts empty;
  EXPECT_EQ(MatchableLabelCount(left, empty, dict), 0);
  EXPECT_EQ(MatchableLabelCount(empty, left, dict), 0);
  EXPECT_EQ(MatchableLabelCount(empty, empty, dict), 0);
}

TEST(LabeledGraphTest, DegreesCountBothDirections) {
  LabelDictionary dict;
  LabelId l = dict.Intern("L");
  LabeledGraph g;
  int v0 = g.AddVertex(l);
  int v1 = g.AddVertex(l);
  int v2 = g.AddVertex(l);
  g.AddEdge(v0, v1, l);
  g.AddEdge(v2, v0, l);
  EXPECT_EQ(g.degree(v0), 2);
  EXPECT_EQ(g.degree(v1), 1);
  EXPECT_EQ(g.degree(v2), 1);
  const std::span<const int> sorted = g.SortedDegrees();
  EXPECT_EQ(std::vector<int>(sorted.begin(), sorted.end()),
            (std::vector<int>{2, 1, 1}));
}

// The degrees and sorted facts a graph maintains of itself, against a
// fresh count over edges() (in-range endpoints only) and a fresh sort.
void ExpectFactsMatchFreshSort(const LabeledGraph& g) {
  const int n = g.num_vertices();
  std::vector<int> degrees(n, 0);
  for (const Edge& e : g.edges()) {
    if (e.src >= 0 && e.src < n) ++degrees[e.src];
    if (e.dst >= 0 && e.dst < n) ++degrees[e.dst];
  }
  for (int v = 0; v < n; ++v) EXPECT_EQ(g.degree(v), degrees[v]);
  std::sort(degrees.begin(), degrees.end(), std::greater<int>());
  std::vector<LabelId> labels;
  for (const Edge& e : g.edges()) labels.push_back(e.label);
  std::sort(labels.begin(), labels.end());
  const std::span<const int> kept_degrees = g.SortedDegrees();
  const std::span<const LabelId> kept_labels = g.SortedEdgeLabels();
  EXPECT_EQ(std::vector<int>(kept_degrees.begin(), kept_degrees.end()),
            degrees);
  EXPECT_EQ(std::vector<LabelId>(kept_labels.begin(), kept_labels.end()),
            labels);
}

TEST(LabeledGraphTest, MaintainedFactsEqualFreshSort) {
  LabelDictionary dict;
  auto labels = testing::TestLabels(dict, 4);
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.Uniform(0, 8));
    LabeledGraph g;
    std::vector<Edge> edges;
    // Interleave vertex and edge additions, checking after each one.
    for (int step = 0; step < 3 * n + 4; ++step) {
      if (g.num_vertices() < 2 || (g.num_vertices() < n && rng.Bernoulli(0.4))) {
        g.AddVertex(labels[rng.Uniform(0, 3)]);
      } else {
        const int src = static_cast<int>(rng.Uniform(0, g.num_vertices() - 1));
        const int dst = static_cast<int>(rng.Uniform(0, g.num_vertices() - 1));
        if (src == dst) continue;
        const LabelId label = labels[rng.Uniform(0, 3)];
        g.AddEdge(src, dst, label);
        edges.push_back(Edge{src, dst, label});
      }
      ExpectFactsMatchFreshSort(g);
    }
    // FromParts counts only in-range endpoints in degrees, but every edge's
    // label.
    edges.push_back(Edge{0, g.num_vertices() + 2, labels[1]});
    edges.push_back(Edge{-1, 0, labels[2]});
    LabeledGraph parts = LabeledGraph::FromParts(
        {g.vertex_labels().begin(), g.vertex_labels().end()}, edges);
    EXPECT_TRUE(std::ranges::equal(parts.vertex_labels(), g.vertex_labels()));
    ExpectFactsMatchFreshSort(parts);
    EXPECT_EQ(parts.num_edges(), g.num_edges() + 2);

    UncertainGraph lifted = UncertainGraph::FromCertain(g);
    ExpectFactsMatchFreshSort(lifted.structure());
    ExpectFactsMatchFreshSort(lifted.RestrictVertex(0, {0}).structure());
    ExpectFactsMatchFreshSort(
        lifted.Materialize(std::vector<int>(g.num_vertices(), 0)));
    ASSERT_FALSE(HasFailure()) << "trial " << trial;
  }
}

TEST(LabeledGraphTest, ParallelEdgesAreKept) {
  LabelDictionary dict;
  LabelId l = dict.Intern("L");
  LabelId m = dict.Intern("M");
  LabeledGraph g;
  int v0 = g.AddVertex(l);
  int v1 = g.AddVertex(l);
  g.AddEdge(v0, v1, l);
  g.AddEdge(v0, v1, m);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.EdgeLabelsBetween(v0, v1).size(), 2u);
  EXPECT_TRUE(g.EdgeLabelsBetween(v1, v0).empty());
}

TEST(LabeledGraphTest, LabelCounts) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabeledGraph g;
  g.AddVertex(a);
  g.AddVertex(a);
  g.AddVertex(b);
  g.AddEdge(0, 1, b);
  LabelCounts vcounts = g.VertexLabelCounts();
  EXPECT_EQ(vcounts[a], 2);
  EXPECT_EQ(vcounts[b], 1);
  LabelCounts ecounts = g.EdgeLabelCounts();
  EXPECT_EQ(ecounts[b], 1);
}

TEST(DegreeDistanceTest, HandExample) {
  // small degrees {3, 1}, big degrees {2, 2, 1}: (3-2) + 0 = 1.
  EXPECT_EQ(DegreeDistanceFromSorted({3, 1}, {2, 2, 1}), 1);
}

TEST(DegreeDistanceTest, ZeroWhenDominated) {
  EXPECT_EQ(DegreeDistanceFromSorted({1, 1}, {3, 2, 1}), 0);
}

TEST(UncertainGraphTest, WorldProbabilitiesSumToTotalMass) {
  LabelDictionary dict;
  auto labels = testing::TestLabels(dict, 6);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    UncertainGraph g = testing::RandomUncertainGraph(
        rng, labels, labels, /*n=*/4, /*m=*/5, /*max_alts=*/3);
    double sum = 0.0;
    int64_t worlds = 0;
    for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
      sum += it.probability();
      ++worlds;
    }
    EXPECT_EQ(worlds, g.NumPossibleWorlds());
    EXPECT_NEAR(sum, g.TotalMass(), 1e-9);
  }
}

TEST(UncertainGraphTest, MaterializePicksChosenLabels) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId e = dict.Intern("rel");
  UncertainGraph g;
  g.AddVertex({{a, 0.6}, {b, 0.4}});
  g.AddCertainVertex(a);
  g.AddEdge(0, 1, e);
  LabeledGraph world = g.Materialize({1, 0});
  EXPECT_EQ(world.vertex_label(0), b);
  EXPECT_EQ(world.vertex_label(1), a);
  EXPECT_EQ(world.num_edges(), 1);
  EXPECT_NEAR(g.WorldProbability({1, 0}), 0.4, 1e-12);
}

TEST(UncertainGraphTest, CertaintyDetection) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  UncertainGraph g;
  g.AddCertainVertex(a);
  g.AddVertex({{a, 0.5}, {b, 0.5}});
  EXPECT_TRUE(g.IsVertexCertain(0));
  EXPECT_FALSE(g.IsVertexCertain(1));
}

TEST(UncertainGraphTest, RestrictVertexMassesAddUp) {
  LabelDictionary dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  LabelId c = dict.Intern("C");
  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.3}, {c, 0.2}});
  g.AddCertainVertex(a);
  g.AddEdge(0, 1, a);
  UncertainGraph first = g.RestrictVertex(0, {0});
  UncertainGraph rest = g.RestrictVertex(0, {1, 2});
  EXPECT_NEAR(first.TotalMass() + rest.TotalMass(), g.TotalMass(), 1e-12);
  EXPECT_EQ(first.num_edges(), 1);
  EXPECT_EQ(rest.alternatives(0).size(), 2u);
}

TEST(UncertainGraphTest, FromCertainRoundTrips) {
  LabelDictionary dict;
  auto labels = testing::TestLabels(dict, 4);
  Rng rng(11);
  LabeledGraph g =
      testing::RandomCertainGraph(rng, labels, labels, /*n=*/5, /*m=*/6);
  UncertainGraph u = UncertainGraph::FromCertain(g);
  EXPECT_EQ(u.NumPossibleWorlds(), 1);
  LabeledGraph back = u.Materialize(std::vector<int>(5, 0));
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(back.vertex_label(v), g.vertex_label(v));
  }
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST(UncertainGraphTest, LiftUncertainEdgesAddsFictitiousVertices) {
  LabelDictionary dict;
  LabelId person = dict.Intern("Person");
  LabelId spouse = dict.Intern("spouse");
  LabelId knows = dict.Intern("knows");
  LabelId link = dict.Intern("__edge__");

  std::vector<std::vector<LabelAlternative>> vertices = {
      {{person, 1.0}}, {{person, 1.0}}};
  std::vector<UncertainEdge> uncertain_edges = {
      {0, 1, {{spouse, 0.7}, {knows, 0.3}}}};
  UncertainGraph lifted =
      LiftUncertainEdges(vertices, /*certain_edges=*/{}, uncertain_edges,
                         link);
  EXPECT_EQ(lifted.num_vertices(), 3);
  EXPECT_EQ(lifted.num_edges(), 2);
  EXPECT_EQ(lifted.alternatives(2).size(), 2u);
  EXPECT_EQ(lifted.NumPossibleWorlds(), 2);
}

}  // namespace
}  // namespace simj::graph

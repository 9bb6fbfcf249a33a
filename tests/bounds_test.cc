#include <gtest/gtest.h>

#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"
#include "graph/uncertain_graph.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace simj::ged {
namespace {

using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::PossibleWorldIterator;
using graph::UncertainGraph;

TEST(LowerBoundTest, CountBoundHandCase) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  LabeledGraph g1, g2;
  g1.AddVertex(a);
  g2.AddVertex(a);
  g2.AddVertex(a);
  g2.AddEdge(0, 1, a);
  EXPECT_EQ(CountLowerBound(g1, g2), 2);
}

TEST(LowerBoundTest, IdenticalGraphsGiveZeroBounds) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph g;
  g.AddVertex(a);
  g.AddVertex(a);
  g.AddEdge(0, 1, r);
  EXPECT_EQ(CountLowerBound(g, g), 0);
  EXPECT_EQ(LabelMultisetLowerBound(g, g, dict), 0);
  EXPECT_EQ(CssLowerBound(g, g, dict), 0);
}

TEST(LowerBoundTest, CssUsesDegreeDistance) {
  // Star with 3 spokes vs path with 4 vertices: same |V|, |E|, same labels,
  // but the degree sequences differ, so only CSS sees a gap.
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph star;
  for (int i = 0; i < 4; ++i) star.AddVertex(a);
  star.AddEdge(0, 1, r);
  star.AddEdge(0, 2, r);
  star.AddEdge(0, 3, r);
  LabeledGraph path;
  for (int i = 0; i < 4; ++i) path.AddVertex(a);
  path.AddEdge(0, 1, r);
  path.AddEdge(1, 2, r);
  path.AddEdge(2, 3, r);

  EXPECT_EQ(LabelMultisetLowerBound(star, path, dict), 0);
  EXPECT_GE(CssLowerBound(star, path, dict), 1);
  int exact = ExactGed(star, path, dict).distance;
  EXPECT_LE(CssLowerBound(star, path, dict), exact);
}

class CertainBoundsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CertainBoundsPropertyTest, BoundsAreValidAndOrdered) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 4);
  vlabels.push_back(dict.Intern("?x"));  // mix in wildcards
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(400 + GetParam());
  LabeledGraph g1 = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  LabeledGraph g2 = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));

  int exact = ExactGed(g1, g2, dict).distance;
  int count_lb = CountLowerBound(g1, g2);
  int lm_lb = LabelMultisetLowerBound(g1, g2, dict);
  int css_lb = CssLowerBound(g1, g2, dict);
  int cstar_lb = CStarLowerBound(g1, g2, dict);

  // All bounds are valid lower bounds.
  EXPECT_LE(count_lb, exact);
  EXPECT_LE(lm_lb, exact);
  EXPECT_LE(css_lb, exact);
  EXPECT_LE(cstar_lb, exact);
  EXPECT_GE(cstar_lb, 0);
  // Thm. 2: CSS dominates the label-multiset bound (which dominates the
  // count bound by [31]).
  EXPECT_GE(css_lb, lm_lb);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CertainBoundsPropertyTest,
                         ::testing::Range(0, 60));

class UncertainBoundPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UncertainBoundPropertyTest, UniformBoundHoldsForEveryWorld) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  Rng rng(500 + GetParam());
  LabeledGraph q = simj::testing::RandomCertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 5)),
      static_cast<int>(rng.Uniform(0, 6)));
  UncertainGraph g = simj::testing::RandomUncertainGraph(
      rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 4)),
      static_cast<int>(rng.Uniform(0, 5)), /*max_alts=*/3);

  int uniform_bound = CssLowerBoundUncertain(q, g, dict);
  for (PossibleWorldIterator it(g); !it.Done(); it.Next()) {
    graph::LabeledGraph world = g.Materialize(it.choice());
    int exact = ExactGed(q, world, dict).distance;
    EXPECT_LE(uniform_bound, exact);
    // The per-world certain bound is also valid.
    EXPECT_LE(CssLowerBound(q, world, dict), exact);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UncertainBoundPropertyTest,
                         ::testing::Range(0, 40));

class ThresholdCssPropertyTest : public ::testing::TestWithParam<int> {};

// The threshold form decides `bound > stop_above` exactly as the exact form
// does, returns the exact bound whenever it is within the threshold, and
// never overshoots it.
TEST_P(ThresholdCssPropertyTest, AgreesWithExactForm) {
  LabelDictionary dict;
  auto vlabels = simj::testing::TestLabels(dict, 5);
  vlabels.push_back(dict.Intern("?x"));  // mix in wildcards
  std::vector<graph::LabelId> elabels = {dict.Intern("r1"),
                                         dict.Intern("r2")};
  metrics::Counter& calls = metrics::Registry::Global().GetCounter(
      "simj_bound_css_uncertain_total");
  Rng rng(900 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    LabeledGraph q = simj::testing::RandomCertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 7)),
        static_cast<int>(rng.Uniform(0, 9)));
    UncertainGraph g = simj::testing::RandomUncertainGraph(
        rng, vlabels, elabels, static_cast<int>(rng.Uniform(1, 7)),
        static_cast<int>(rng.Uniform(0, 9)), /*max_alts=*/3);
    const int64_t calls_before = calls.Value();
    const int exact = CssLowerBoundUncertain(q, g, dict);
    for (int stop_above = 0; stop_above <= 6; ++stop_above) {
      const int bounded = CssLowerBoundUncertain(q, g, dict, stop_above);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " exact "
                                        << exact << " stop_above "
                                        << stop_above);
      if (exact <= stop_above) {
        EXPECT_EQ(bounded, exact);
      }
      EXPECT_EQ(bounded > stop_above, exact > stop_above);
      EXPECT_LE(bounded, exact);
    }
    EXPECT_EQ(calls.Value() - calls_before, 8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThresholdCssPropertyTest,
                         ::testing::Range(0, 10));

TEST(CStarBoundTest, HandCases) {
  LabelDictionary dict;
  graph::LabelId a = dict.Intern("A");
  graph::LabelId r = dict.Intern("r");
  LabeledGraph g;
  g.AddVertex(a);
  g.AddVertex(a);
  g.AddEdge(0, 1, r);
  EXPECT_EQ(CStarLowerBound(g, g, dict), 0);

  LabeledGraph empty;
  EXPECT_EQ(CStarLowerBound(empty, empty, dict), 0);
  // Versus the empty graph: mu = sum of star sizes, normalized by 4.
  EXPECT_GE(CStarLowerBound(g, empty, dict), 0);
  int exact = ExactGed(g, empty, dict).distance;
  EXPECT_LE(CStarLowerBound(g, empty, dict), exact);
}

TEST(UncertainBoundTest, MaxCommonVertexLabelsBipartite) {
  // Mirrors the paper's Def. 10 example shape: an uncertain vertex links to
  // a q vertex iff one of its alternatives matches.
  LabelDictionary dict;
  graph::LabelId nba = dict.Intern("NBA_Player");
  graph::LabelId prof = dict.Intern("Professor");
  graph::LabelId actor = dict.Intern("Actor");
  graph::LabelId city = dict.Intern("City");

  LabeledGraph q;
  q.AddVertex(actor);
  q.AddVertex(city);

  UncertainGraph g;
  g.AddVertex({{nba, 0.6}, {prof, 0.3}, {actor, 0.1}});
  g.AddVertex({{city, 1.0}});
  g.AddEdge(0, 1, actor);

  EXPECT_EQ(MaxCommonVertexLabels(q, g, dict), 2);
}

TEST(UncertainBoundTest, WildcardInQueryMatchesEverything) {
  LabelDictionary dict;
  graph::LabelId var = dict.Intern("?x");
  graph::LabelId a = dict.Intern("A");
  graph::LabelId b = dict.Intern("B");

  LabeledGraph q;
  q.AddVertex(var);

  UncertainGraph g;
  g.AddVertex({{a, 0.5}, {b, 0.5}});
  EXPECT_EQ(MaxCommonVertexLabels(q, g, dict), 1);
}

}  // namespace
}  // namespace simj::ged

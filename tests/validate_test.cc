// Tests for the invariant-validation layer: graph Validate() rejecting
// malformed inputs with descriptive statuses, the GED postcondition
// validator, operand-printing checks, and death tests asserting that
// SIMJ_DEBUG_CHECKS aborts on corrupted internal state. This translation
// unit compiles with SIMJ_DEBUG_CHECKS=1 regardless of the build-wide
// option (see tests/CMakeLists.txt), so the DCHECK macros are live here.

#include <string>
#include <vector>

#include "ged/edit_distance.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/check.h"
#include "util/status.h"

namespace simj {
namespace {

using graph::Edge;
using graph::LabelAlternative;
using graph::LabelDictionary;
using graph::LabeledGraph;
using graph::LabelId;
using graph::UncertainGraph;

// ---------------------------------------------------------------------------
// LabeledGraph::Validate
// ---------------------------------------------------------------------------

TEST(LabeledGraphValidateTest, WellFormedGraphPasses) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 4);
  LabeledGraph g;
  int a = g.AddVertex(labels[0]);
  int b = g.AddVertex(labels[1]);
  int c = g.AddVertex(labels[2]);
  g.AddEdge(a, b, labels[3]);
  g.AddEdge(b, c, labels[3]);
  g.AddEdge(a, c, labels[0]);
  EXPECT_TRUE(g.Validate(dict).ok());
}

TEST(LabeledGraphValidateTest, DanglingEdgeEndpointRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 2);
  LabeledGraph g = LabeledGraph::FromParts(
      {labels[0], labels[1]}, {Edge{0, 7, labels[0]}});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out-of-range endpoint"),
            std::string::npos)
      << status.ToString();
}

TEST(LabeledGraphValidateTest, SelfLoopRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 2);
  LabeledGraph g = LabeledGraph::FromParts(
      {labels[0], labels[1]}, {Edge{1, 1, labels[0]}});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("self loop"), std::string::npos)
      << status.ToString();
}

TEST(LabeledGraphValidateTest, InvalidVertexLabelRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 1);
  LabeledGraph g;
  g.AddVertex(labels[0]);
  g.AddVertex(static_cast<LabelId>(dict.size()) + 41);  // never interned
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("invalid label id"), std::string::npos)
      << status.ToString();
}

TEST(LabeledGraphValidateTest, InvalidEdgeLabelRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 2);
  LabeledGraph g;
  int a = g.AddVertex(labels[0]);
  int b = g.AddVertex(labels[1]);
  g.AddEdge(a, b, static_cast<LabelId>(dict.size()) + 5);
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("invalid label id"), std::string::npos)
      << status.ToString();
}

TEST(LabeledGraphValidateTest, FromPartsRoundTripsWellFormedInput) {
  // The escape hatch itself must not corrupt valid input: the degrees are
  // rebuilt from the edges.
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 3);
  LabeledGraph g = LabeledGraph::FromParts(
      {labels[0], labels[1]},
      {Edge{0, 1, labels[2]}, Edge{1, 0, labels[2]}});
  EXPECT_TRUE(g.Validate(dict).ok()) << g.Validate(dict).ToString();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
}

// ---------------------------------------------------------------------------
// UncertainGraph::Validate (paper Def. 2/4 invariants)
// ---------------------------------------------------------------------------

UncertainGraph OneVertexUncertain(std::vector<LabelAlternative> alternatives) {
  LabeledGraph structure;
  structure.AddVertex(graph::kInvalidLabel);
  return UncertainGraph::FromParts({std::move(alternatives)},
                                   std::move(structure));
}

TEST(UncertainGraphValidateTest, WellFormedGraphPasses) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 3);
  UncertainGraph g;
  g.AddVertex({LabelAlternative{labels[0], 0.6},
               LabelAlternative{labels[1], 0.4}});
  g.AddCertainVertex(labels[2]);
  g.AddEdge(0, 1, labels[2]);
  EXPECT_TRUE(g.Validate(dict).ok());
}

TEST(UncertainGraphValidateTest, EmptyAlternativeSetRejected) {
  LabelDictionary dict;
  testing::TestLabels(dict, 1);
  UncertainGraph g = OneVertexUncertain({});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("empty alternative set"),
            std::string::npos)
      << status.ToString();
}

TEST(UncertainGraphValidateTest, ProbabilityMassAboveOneRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 2);
  UncertainGraph g = OneVertexUncertain({LabelAlternative{labels[0], 0.7},
                                         LabelAlternative{labels[1], 0.6}});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("probability mass"), std::string::npos)
      << status.ToString();
}

TEST(UncertainGraphValidateTest, NonPositiveProbabilityRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 1);
  UncertainGraph g = OneVertexUncertain({LabelAlternative{labels[0], 0.0}});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("outside (0, 1]"), std::string::npos)
      << status.ToString();
}

TEST(UncertainGraphValidateTest, DuplicateAlternativeLabelRejected) {
  // Mutual exclusivity (Def. 2): two alternatives of one vertex must carry
  // distinct labels. AddVertex cannot check this cheaply, so this is a
  // Validate-only catch.
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 1);
  UncertainGraph g;
  g.AddVertex({LabelAlternative{labels[0], 0.5},
               LabelAlternative{labels[0], 0.5}});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mutually exclusive"), std::string::npos)
      << status.ToString();
}

TEST(UncertainGraphValidateTest, AlternativeCountMismatchRejected) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 1);
  LabeledGraph structure;
  structure.AddVertex(graph::kInvalidLabel);
  structure.AddVertex(graph::kInvalidLabel);
  UncertainGraph g = UncertainGraph::FromParts(
      {{LabelAlternative{labels[0], 1.0}}}, std::move(structure));
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("disagrees"), std::string::npos)
      << status.ToString();
}

TEST(UncertainGraphValidateTest, InvalidAlternativeLabelRejected) {
  LabelDictionary dict;
  testing::TestLabels(dict, 1);
  UncertainGraph g = OneVertexUncertain(
      {LabelAlternative{static_cast<LabelId>(dict.size()) + 3, 0.9}});
  Status status = g.Validate(dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("invalid label id"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// GED postcondition validator
// ---------------------------------------------------------------------------

struct GedFixture {
  LabelDictionary dict;
  LabeledGraph a;
  LabeledGraph b;
  ged::GedResult result;

  GedFixture() {
    std::vector<LabelId> labels = testing::TestLabels(dict, 4);
    int a0 = a.AddVertex(labels[0]);
    int a1 = a.AddVertex(labels[1]);
    a.AddEdge(a0, a1, labels[3]);
    int b0 = b.AddVertex(labels[0]);
    int b1 = b.AddVertex(labels[2]);
    b.AddEdge(b0, b1, labels[3]);
    result = ged::ExactGed(a, b, dict);
  }
};

TEST(GedPostconditionTest, SolverResultPassesValidation) {
  GedFixture fx;
  EXPECT_TRUE(ged::ValidateGedResult(fx.a, fx.b, fx.result, fx.dict).ok());
}

TEST(GedPostconditionTest, InflatedDistanceRejected) {
  GedFixture fx;
  fx.result.distance += 1;  // mapping no longer witnesses the distance
  Status status = ged::ValidateGedResult(fx.a, fx.b, fx.result, fx.dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("witnesses cost"), std::string::npos)
      << status.ToString();
}

TEST(GedPostconditionTest, NonInjectiveMappingRejected) {
  GedFixture fx;
  ASSERT_EQ(fx.result.mapping.size(), 2u);
  fx.result.mapping[0] = fx.result.mapping[1] = 0;
  Status status = ged::ValidateGedResult(fx.a, fx.b, fx.result, fx.dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not injective"), std::string::npos)
      << status.ToString();
}

TEST(GedPostconditionTest, OutOfRangeMappingTargetRejected) {
  GedFixture fx;
  fx.result.mapping[0] = fx.b.num_vertices() + 2;
  Status status = ged::ValidateGedResult(fx.a, fx.b, fx.result, fx.dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out-of-range target"), std::string::npos)
      << status.ToString();
}

TEST(GedPostconditionTest, WrongMappingSizeRejected) {
  GedFixture fx;
  fx.result.mapping.push_back(-1);
  Status status = ged::ValidateGedResult(fx.a, fx.b, fx.result, fx.dict);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("size disagrees"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Operand-printing checks (single evaluation + value capture)
// ---------------------------------------------------------------------------

TEST(CheckMacroTest, OperandsEvaluatedExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  SIMJ_CHECK_EQ(next(), 1);
  EXPECT_EQ(calls, 1);
  SIMJ_CHECK_LT(next(), 99);
  EXPECT_EQ(calls, 2);
}

TEST(CheckMacroTest, DcheckLiveInThisTranslationUnit) {
  // tests/CMakeLists.txt compiles this TU with SIMJ_DEBUG_CHECKS=1; the
  // DCHECK family must evaluate (and pass) here.
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  SIMJ_DCHECK_EQ(next(), 1);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Death tests: SIMJ_DEBUG_CHECKS aborts on corrupted state, and failed
// checks print both operand values.
// ---------------------------------------------------------------------------

using ValidateDeathTest = ::testing::Test;

TEST(ValidateDeathTest, DebugChecksAbortOnCorruptedGedMapping) {
  GedFixture fx;
  fx.result.mapping[0] = fx.result.mapping[1];  // corrupt: not injective
  EXPECT_DEATH(
      SIMJ_DCHECK_OK(ged::ValidateGedResult(fx.a, fx.b, fx.result, fx.dict)),
      "SIMJ_CHECK failed");
}

TEST(ValidateDeathTest, CheckEqPrintsBothOperandValues) {
  int lhs = 3;
  int rhs = 4;
  EXPECT_DEATH(SIMJ_CHECK_EQ(lhs, rhs), "3 vs\\. 4");
}

TEST(ValidateDeathTest, DcheckMirrorsCheckOperandPrinting) {
  int lhs = 7;
  EXPECT_DEATH(SIMJ_DCHECK_GT(lhs, 9), "7 vs\\. 9");
}

TEST(ValidateDeathTest, ConstructorAbortsOnDanglingEndpoint) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 1);
  LabeledGraph g;
  g.AddVertex(labels[0]);
  EXPECT_DEATH(g.AddEdge(0, 9, labels[0]), "SIMJ_CHECK failed");
}

TEST(ValidateDeathTest, ConstructorAbortsOnExcessProbabilityMass) {
  LabelDictionary dict;
  std::vector<LabelId> labels = testing::TestLabels(dict, 2);
  UncertainGraph g;
  EXPECT_DEATH(g.AddVertex({LabelAlternative{labels[0], 0.8},
                            LabelAlternative{labels[1], 0.8}}),
               "SIMJ_CHECK failed");
}

TEST(ValidateDeathTest, ConstructorAbortsOnEmptyAlternativeSet) {
  UncertainGraph g;
  EXPECT_DEATH(g.AddVertex({}), "SIMJ_CHECK failed");
}

}  // namespace
}  // namespace simj

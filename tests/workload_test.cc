#include <chrono>
#include <set>

#include <gtest/gtest.h>

#include "ged/edit_distance.h"
#include "workload/io.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"
#include "workload/synthetic.h"

namespace simj::workload {
namespace {

TEST(KnowledgeBaseTest, SchemaInvariants) {
  KnowledgeBase kb(KbConfig{.seed = 1});
  EXPECT_GT(kb.classes().size(), 1u);
  EXPECT_GT(kb.predicates().size(), 0u);
  EXPECT_GT(kb.entities().size(), 0u);
  for (const auto& predicate : kb.predicates()) {
    EXPECT_GE(predicate.domain_class, 0);
    EXPECT_LT(predicate.domain_class,
              static_cast<int>(kb.classes().size()));
    EXPECT_GE(predicate.range_class, 0);
    EXPECT_FALSE(predicate.phrases.empty());
  }
}

// 2-3 syllable names run out near 660 entities per class; the name loop
// must fall back to longer names instead of spinning.
TEST(KnowledgeBaseTest, ThousandEntitiesPerClassBuildsInBoundedTime) {
  const auto start = std::chrono::steady_clock::now();
  KnowledgeBase kb(KbConfig{.seed = 3, .entities_per_class = 1000});
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(kb.entities().size(), kb.classes().size() * 1000);
  EXPECT_LT(seconds, 20.0);
}

TEST(KnowledgeBaseTest, EveryEntityHasTypeTripleAndLink) {
  KnowledgeBase kb(KbConfig{.seed = 2});
  for (const auto& entity : kb.entities()) {
    EXPECT_TRUE(kb.store().Contains(entity.term, kb.type_predicate(),
                                    kb.classes()[entity.class_index].term));
    const std::vector<nlp::EntityLink>* links =
        kb.lexicon().FindEntity(entity.phrase);
    ASSERT_NE(links, nullptr) << entity.phrase;
    bool found = false;
    for (const nlp::EntityLink& link : *links) {
      if (link.entity == entity.term) found = true;
    }
    EXPECT_TRUE(found) << entity.phrase;
  }
}

TEST(KnowledgeBaseTest, FactsRespectRangeTyping) {
  KnowledgeBase kb(KbConfig{.seed = 3});
  for (size_t e = 0; e < kb.entities().size(); ++e) {
    for (const KnowledgeBase::Fact& fact : kb.FactsOf(static_cast<int>(e))) {
      const auto& predicate = kb.predicates()[fact.predicate_index];
      EXPECT_EQ(kb.entities()[fact.object_entity].class_index,
                predicate.range_class);
    }
  }
}

TEST(KnowledgeBaseTest, TypeResolverCoversEntitiesOnly) {
  KnowledgeBase kb(KbConfig{.seed = 4});
  auto resolver = kb.TypeResolver();
  const auto& entity = kb.entities().front();
  EXPECT_EQ(resolver(entity.term), kb.classes()[entity.class_index].term);
  EXPECT_EQ(resolver(kb.classes().front().term), graph::kInvalidLabel);
  EXPECT_EQ(resolver(kb.type_predicate()), graph::kInvalidLabel);
}

TEST(KnowledgeBaseTest, AmbiguityKnobCreatesSharedPhrases) {
  KbConfig config;
  config.seed = 5;
  config.entity_phrase_ambiguity = 0.5;
  KnowledgeBase kb(config);
  int shared = 0;
  std::set<std::string> seen;
  for (const auto& entity : kb.entities()) {
    const auto* links = kb.lexicon().FindEntity(entity.phrase);
    if (links != nullptr && links->size() > 1 &&
        seen.insert(entity.phrase).second) {
      ++shared;
    }
  }
  EXPECT_GT(shared, 0);
}

TEST(KnowledgeBaseTest, ClosedDomainUsesMmClasses) {
  KbConfig config;
  config.seed = 6;
  config.closed_domain = true;
  KnowledgeBase kb(config);
  for (const auto& cls : kb.classes()) {
    EXPECT_TRUE(cls.name == "Film" || cls.name == "Actor" ||
                cls.name == "Director" || cls.name == "Band" ||
                cls.name == "Album" || cls.name == "Song" ||
                cls.name == "Composer" || cls.name == "Genre")
        << cls.name;
  }
}

TEST(WorkloadTest, GoldQueriesHaveAnswers) {
  KnowledgeBase kb(KbConfig{.seed = 7});
  WorkloadConfig config;
  config.seed = 7;
  config.num_questions = 40;
  Workload workload = GenerateWorkload(kb, config);
  ASSERT_EQ(workload.questions.size(), 40u);
  for (const QuestionInstance& question : workload.questions) {
    auto rows = kb.store().Evaluate(question.gold_query.ToBgp(), kb.dict());
    EXPECT_FALSE(rows.empty()) << question.text;
    EXPECT_GE(question.num_relations, 1);
    ASSERT_GE(question.gold_sparql_index, 0);
    EXPECT_EQ(workload.sparql_texts[question.gold_sparql_index],
              question.gold_query_text);
  }
}

TEST(WorkloadTest, DistractorsEnlargeD) {
  KnowledgeBase kb(KbConfig{.seed = 8});
  WorkloadConfig config;
  config.seed = 8;
  config.num_questions = 20;
  config.distractor_queries = 30;
  Workload workload = GenerateWorkload(kb, config);
  EXPECT_GT(workload.sparql_queries.size(), 20u);
}

TEST(WorkloadTest, JoinSidesMostQuestionsSurviveTheNlpPipeline) {
  KnowledgeBase kb(KbConfig{.seed = 9});
  WorkloadConfig config;
  config.seed = 9;
  config.num_questions = 60;
  Workload workload = GenerateWorkload(kb, config);
  JoinSides sides = BuildJoinSides(kb, workload);
  EXPECT_EQ(sides.d.size(), workload.sparql_queries.size());
  // The rule-based parser should handle the bulk of the generated grammar;
  // trap phrases cause a small number of failures.
  EXPECT_GE(sides.u.size(), workload.questions.size() * 7 / 10);
  EXPECT_EQ(sides.u.size(), sides.u_parsed.size());
  EXPECT_EQ(sides.u.size(), sides.u_graphs.size());
}

TEST(WorkloadTest, SameIntentIdentifiesGoldPairs) {
  KnowledgeBase kb(KbConfig{.seed = 10});
  WorkloadConfig config;
  config.seed = 10;
  config.num_questions = 10;
  Workload workload = GenerateWorkload(kb, config);
  const auto& q0 = workload.questions[0];
  EXPECT_TRUE(SameIntent(kb, q0.gold_query,
                         workload.sparql_queries[q0.gold_sparql_index]));
}

TEST(WorkloadTest, WhoQuestionsDropTheClassConstraint) {
  KnowledgeBase kb(KbConfig{.seed = 16});
  WorkloadConfig config;
  config.seed = 16;
  config.num_questions = 200;
  Workload workload = GenerateWorkload(kb, config);
  int who_questions = 0;
  for (const QuestionInstance& question : workload.questions) {
    if (question.text.rfind("Who ", 0) != 0) continue;
    ++who_questions;
    // The gold query must not contain a type triple for the select var.
    rdf::TermId wh = question.gold_query.select_vars[0];
    for (const rdf::TriplePattern& pattern : question.gold_query.patterns) {
      EXPECT_FALSE(pattern.subject == wh &&
                   pattern.predicate == kb.type_predicate())
          << question.text;
    }
    // And it still has answers.
    EXPECT_FALSE(
        kb.store().Evaluate(question.gold_query.ToBgp(), kb.dict()).empty());
  }
  EXPECT_GT(who_questions, 0);
}

TEST(WorkloadTest, PluralGiveMeAllQuestionsParse) {
  KnowledgeBase kb(KbConfig{.seed = 17});
  WorkloadConfig config;
  config.seed = 17;
  config.num_questions = 150;
  Workload workload = GenerateWorkload(kb, config);
  int plural = 0;
  for (const QuestionInstance& question : workload.questions) {
    if (question.text.rfind("Give me all", 0) == 0 &&
        nlp::ParseQuestion(question.text, kb.lexicon()).ok()) {
      ++plural;
    }
  }
  EXPECT_GT(plural, 5);
}

TEST(WorkloadIoTest, RoundTripsGeneratedWorkload) {
  KnowledgeBase kb(KbConfig{.seed = 18});
  WorkloadConfig config;
  config.seed = 18;
  config.num_questions = 30;
  config.distractor_queries = 10;
  Workload original = GenerateWorkload(kb, config);

  std::string text = SerializeWorkload(original, kb.dict());
  StatusOr<Workload> reloaded = ParseWorkloadText(text, kb.dict());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->questions.size(), original.questions.size());
  EXPECT_EQ(reloaded->sparql_texts.size(), original.sparql_texts.size());
  for (size_t i = 0; i < original.questions.size(); ++i) {
    EXPECT_EQ(reloaded->questions[i].text, original.questions[i].text);
    EXPECT_EQ(reloaded->questions[i].gold_query_text,
              original.questions[i].gold_query_text);
    EXPECT_EQ(reloaded->questions[i].num_relations,
              original.questions[i].num_relations);
  }
  // A reloaded workload feeds the join pipeline unchanged.
  JoinSides sides = BuildJoinSides(kb, *reloaded);
  EXPECT_EQ(sides.d.size(), reloaded->sparql_queries.size());
}

TEST(WorkloadIoTest, ParsesHandWrittenFile) {
  graph::LabelDictionary dict;
  StatusOr<Workload> workload = ParseWorkloadText(
      "# my benchmark\n"
      "Q Which actor was born in Paris?\t"
      "SELECT ?x WHERE { ?x type Actor . ?x birthPlace Paris . }\n"
      "S SELECT ?y WHERE { ?y type City . }\n",
      dict);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->questions.size(), 1u);
  EXPECT_EQ(workload->questions[0].num_relations, 1);
  EXPECT_EQ(workload->sparql_queries.size(), 2u);
}

TEST(WorkloadIoTest, RejectsMalformedLines) {
  graph::LabelDictionary dict;
  EXPECT_FALSE(ParseWorkloadText("Q question without tab\n", dict).ok());
  EXPECT_FALSE(ParseWorkloadText("Q q\tnot sparql at all\n", dict).ok());
  EXPECT_FALSE(ParseWorkloadText("X whatever\n", dict).ok());
  EXPECT_FALSE(
      ParseWorkloadText("S SELECT ?x WHERE { broken\n", dict).ok());
}

TEST(SyntheticTest, ErDatasetShapes) {
  SyntheticConfig config;
  config.seed = 11;
  config.num_certain = 10;
  config.num_uncertain = 10;
  config.num_vertices = 8;
  config.num_edges = 12;
  SyntheticDataset dataset = MakeErDataset(config);
  ASSERT_EQ(dataset.certain.size(), 10u);
  ASSERT_EQ(dataset.uncertain.size(), 10u);
  for (const auto& g : dataset.certain) {
    EXPECT_EQ(g.num_vertices(), 8);
    EXPECT_LE(g.num_edges(), 12);
  }
  for (const auto& g : dataset.uncertain) {
    EXPECT_EQ(g.num_vertices(), 8);
    EXPECT_NEAR(g.TotalMass(), 1.0, 1e-9);
  }
}

TEST(SyntheticTest, SfGraphsAreSkewedErAreNot) {
  SyntheticConfig config;
  config.seed = 12;
  config.num_certain = 30;
  config.num_uncertain = 1;
  config.num_vertices = 30;
  config.num_edges = 60;
  SyntheticDataset er = MakeErDataset(config);
  SyntheticDataset sf = MakeSfDataset(config);
  auto max_degree = [](const std::vector<graph::LabeledGraph>& graphs) {
    int best = 0;
    for (const auto& g : graphs) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        best = std::max(best, g.degree(v));
      }
    }
    return best;
  };
  // Preferential attachment produces hubs well above the ER maximum.
  EXPECT_GT(max_degree(sf.certain), max_degree(er.certain));
}

TEST(SyntheticTest, AidsDatasetLooksMolecular) {
  SyntheticConfig config;
  config.seed = 13;
  config.num_certain = 10;
  config.num_uncertain = 10;
  config.num_vertices = 10;
  SyntheticDataset dataset = MakeAidsDataset(config);
  for (const auto& g : dataset.certain) {
    // Tree backbone plus at most 2 ring closures.
    EXPECT_GE(g.num_edges(), g.num_vertices() - 1);
    EXPECT_LE(g.num_edges(), g.num_vertices() + 1);
  }
}

TEST(SyntheticTest, MakeUncertainKeepsTruthAmongAlternatives) {
  Rng rng(14);
  graph::LabelDictionary dict;
  std::vector<graph::LabelId> labels;
  for (int i = 0; i < 10; ++i) {
    std::string label_name = "L";
    label_name += std::to_string(i);
    labels.push_back(dict.Intern(label_name));
  }
  graph::LabeledGraph base = RandomErGraph(rng, labels, labels, 6, 8);
  graph::UncertainGraph uncertain =
      MakeUncertain(rng, base, labels, /*labels_per_vertex=*/3,
                    /*uncertain_fraction=*/1.0);
  for (int v = 0; v < base.num_vertices(); ++v) {
    bool truth_present = false;
    for (const auto& alt : uncertain.alternatives(v)) {
      if (alt.label == base.vertex_label(v)) truth_present = true;
    }
    EXPECT_TRUE(truth_present);
  }
  EXPECT_EQ(uncertain.num_edges(), base.num_edges());
}

TEST(SyntheticTest, PerturbStaysClose) {
  Rng rng(15);
  graph::LabelDictionary dict;
  std::vector<graph::LabelId> labels;
  for (int i = 0; i < 5; ++i) {
    std::string label_name = "L";
    label_name += std::to_string(i);
    labels.push_back(dict.Intern(label_name));
  }
  graph::LabeledGraph base = RandomErGraph(rng, labels, labels, 5, 6);
  graph::LabeledGraph close = Perturb(rng, base, labels, labels, 2);
  int ged = ged::ExactGed(base, close, dict).distance;
  // Two edit operations applied, but each op costs at most 1 and some may
  // be no-ops (relabel to the same label).
  EXPECT_LE(ged, 2);
}

}  // namespace
}  // namespace simj::workload

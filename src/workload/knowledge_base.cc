#include "workload/knowledge_base.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"
#include "util/strings.h"

namespace simj::workload {

namespace {

struct ClassSeed {
  const char* name;
  const char* phrase;
};

constexpr ClassSeed kOpenClasses[] = {
    {"Actor", "actor"},         {"Politician", "politician"},
    {"City", "city"},           {"Country", "country"},
    {"University", "university"}, {"Company", "company"},
    {"Film", "film"},           {"Band", "band"},
    {"Scientist", "scientist"}, {"River", "river"},
    {"Book", "book"},           {"Team", "team"},
    {"Museum", "museum"},       {"Airport", "airport"},
    {"Language", "language"},   {"Award", "award"},
};

constexpr ClassSeed kClosedClasses[] = {
    {"Film", "film"},       {"Actor", "actor"},
    {"Director", "director"}, {"Band", "band"},
    {"Album", "album"},     {"Song", "song"},
    {"Composer", "composer"}, {"Genre", "genre"},
};

struct PredicateSeed {
  const char* name;
  const char* phrase;
};

constexpr PredicateSeed kPredicateSeeds[] = {
    {"birthPlace", "born in"},
    {"graduatedFrom", "graduated from"},
    {"spouse", "married to"},
    {"directedBy", "directed by"},
    {"locatedIn", "located in"},
    {"worksFor", "works for"},
    {"foundedBy", "founded by"},
    {"playsFor", "plays for"},
    {"wrote", "wrote"},
    {"composedBy", "composed by"},
    {"memberOf", "member of"},
    {"capitalOf", "capital of"},
    {"starring", "starring"},
    {"developedBy", "developed by"},
    {"headquarteredIn", "headquartered in"},
    {"discoveredBy", "discovered by"},
    {"flowsThrough", "flows through"},
    {"ownedBy", "owned by"},
    {"marriedIn", "married in"},
    {"studiedAt", "studied at"},
};

constexpr const char* kSyllables[] = {"ka", "ro", "min", "tel", "dor", "va",
                                      "lu", "shan", "pe", "gri", "zo", "mar",
                                      "li", "ben", "tu", "sa"};

// 16 syllables make only 4,352 names of 2-3 syllables, so a large KB runs
// out of fresh ones. After this many collisions in a row every later name
// gets one syllable more. No draw changes until such a run happens, so a
// smaller KB is the same with or without the fallback.
constexpr int kMaxNameCollisions = 4096;

std::string RandomName(Rng& rng, int syllables) {
  std::string out;
  for (int i = 0; i < syllables; ++i) {
    out += kSyllables[rng.Uniform(0, std::size(kSyllables) - 1)];
  }
  return out;
}

}  // namespace

KnowledgeBase::KnowledgeBase(const KbConfig& config) {
  Rng rng(config.seed);
  type_predicate_ = dict_.Intern("type");
  BuildSchema(config, rng);
  BuildEntities(config, rng);
  BuildFacts(config, rng);
}

void KnowledgeBase::BuildSchema(const KbConfig& config, Rng& rng) {
  const ClassSeed* seeds = config.closed_domain ? kClosedClasses : kOpenClasses;
  int seed_count = config.closed_domain
                       ? static_cast<int>(std::size(kClosedClasses))
                       : static_cast<int>(std::size(kOpenClasses));
  int num_classes = std::min(config.num_classes, seed_count);
  SIMJ_CHECK_GT(num_classes, 1);
  classes_.reserve(num_classes);
  for (int i = 0; i < num_classes; ++i) {
    ClassInfo info;
    info.name = seeds[i].name;
    info.phrase = seeds[i].phrase;
    info.term = dict_.Intern(info.name);
    lexicon_.AddClassPhrase(info.phrase,
                            nlp::ClassLink{info.term, info.term});
    classes_.push_back(std::move(info));
  }
  entities_of_class_.resize(classes_.size());
  predicates_of_domain_.resize(classes_.size());

  int num_predicates =
      std::min(config.num_predicates,
               static_cast<int>(std::size(kPredicateSeeds)));
  SIMJ_CHECK_GT(num_predicates, 0);
  for (int i = 0; i < num_predicates; ++i) {
    PredicateInfo info;
    info.name = kPredicateSeeds[i].name;
    info.term = dict_.Intern(info.name);
    info.domain_class = static_cast<int>(rng.Uniform(0, classes_.size() - 1));
    do {
      info.range_class = static_cast<int>(rng.Uniform(0, classes_.size() - 1));
    } while (info.range_class == info.domain_class && classes_.size() > 1);
    info.phrases.push_back(kPredicateSeeds[i].phrase);
    predicates_of_domain_[info.domain_class].push_back(
        static_cast<int>(predicates_.size()));
    // Half the predicates are polysemous: a second domain class also uses
    // them ("locatedIn" applies to cities and companies alike). Queries
    // without an answer-type constraint then mix classes in their results.
    if (classes_.size() > 2 && rng.Bernoulli(0.5)) {
      int second;
      do {
        second = static_cast<int>(rng.Uniform(0, classes_.size() - 1));
      } while (second == info.domain_class || second == info.range_class);
      predicates_of_domain_[second].push_back(
          static_cast<int>(predicates_.size()));
    }
    predicates_.push_back(std::move(info));
  }

  // Register relation phrases. With probability (1 - top1_accuracy) the
  // phrase also links to a random *other* predicate with a higher
  // confidence, so naive top-1 paraphrasing picks the wrong predicate.
  for (size_t i = 0; i < predicates_.size(); ++i) {
    for (const std::string& phrase : predicates_[i].phrases) {
      bool corrupted = predicates_.size() > 1 &&
                       !rng.Bernoulli(config.relation_top1_accuracy);
      if (corrupted) {
        size_t other;
        do {
          other = static_cast<size_t>(rng.Uniform(0, predicates_.size() - 1));
        } while (other == i);
        lexicon_.AddRelationPhrase(
            phrase, nlp::PredicateLink{predicates_[other].term, 0.55});
        lexicon_.AddRelationPhrase(
            phrase, nlp::PredicateLink{predicates_[i].term, 0.45});
      } else {
        lexicon_.AddRelationPhrase(
            phrase, nlp::PredicateLink{predicates_[i].term, 0.9});
      }
    }
  }
}

void KnowledgeBase::BuildEntities(const KbConfig& config, Rng& rng) {
  // Phrase -> entity indices sharing it (for ambiguity bookkeeping).
  std::unordered_map<std::string, std::vector<int>> entities_of_phrase;
  std::vector<std::string> reusable_phrases;
  int extra_syllables = 0;

  for (size_t c = 0; c < classes_.size(); ++c) {
    for (int k = 0; k < config.entities_per_class; ++k) {
      EntityInfo info;
      info.class_index = static_cast<int>(c);

      bool reuse = !reusable_phrases.empty() &&
                   rng.Bernoulli(config.entity_phrase_ambiguity);
      if (reuse) {
        info.phrase = reusable_phrases[rng.Uniform(
            0, reusable_phrases.size() - 1)];
      } else if (rng.Bernoulli(config.trap_phrase_fraction)) {
        info.phrase = RandomName(rng, 2) + " and " + RandomName(rng, 2);
      } else {
        int collisions = 0;
        while (true) {
          info.phrase = RandomName(
              rng, static_cast<int>(rng.Uniform(2, 3)) + extra_syllables);
          if (!entities_of_phrase.contains(info.phrase)) break;
          if (++collisions == kMaxNameCollisions) {
            ++extra_syllables;
            collisions = 0;
          }
        }
        reusable_phrases.push_back(info.phrase);
      }

      std::string term_name =
          classes_[c].name + "_" + std::to_string(k) + "_" + info.phrase;
      // Phrases may contain spaces; terms must not.
      std::replace(term_name.begin(), term_name.end(), ' ', '_');
      info.term = dict_.Intern(term_name);

      int index = static_cast<int>(entities_.size());
      entities_.push_back(info);
      entities_of_class_[c].push_back(index);
      entities_of_phrase[info.phrase].push_back(index);
      entity_index_of_term_.emplace(info.term, index);
    }
  }

  // Register entity links with confidences: phrases shared by several
  // entities get a descending confidence profile; with probability
  // entity_top1_error the *true order is scrambled* so the top candidate is
  // a different entity than the intended one in half the generated
  // questions.
  for (auto& [phrase, members] : entities_of_phrase) {
    std::vector<int> order = members;
    if (order.size() > 1 && rng.Bernoulli(config.entity_top1_error)) {
      rng.Shuffle(order);
    }
    // Descending confidences summing to <= 1.
    double remaining = 1.0;
    for (size_t i = 0; i < order.size(); ++i) {
      double conf = i + 1 == order.size() ? remaining : remaining * 0.6;
      remaining -= conf;
      const EntityInfo& e = entities_[order[i]];
      lexicon_.AddEntityPhrase(
          phrase, nlp::EntityLink{e.term, classes_[e.class_index].term, conf});
    }
  }

  facts_of_entity_.resize(entities_.size());
}

void KnowledgeBase::BuildFacts(const KbConfig& config, Rng& rng) {
  for (size_t e = 0; e < entities_.size(); ++e) {
    const EntityInfo& entity = entities_[e];
    store_.Add(entity.term, type_predicate_, classes_[entity.class_index].term);
    const std::vector<int>& candidate_predicates =
        predicates_of_domain_[entity.class_index];
    if (candidate_predicates.empty()) continue;
    // Poisson-ish fact count: at least one fact so every entity can seed a
    // question.
    int fact_count = 1 + static_cast<int>(rng.Uniform(
                             0, std::max<int64_t>(1, static_cast<int64_t>(
                                                         2 * config.facts_per_entity) -
                                                         1)));
    for (int f = 0; f < fact_count; ++f) {
      int p = candidate_predicates[rng.Uniform(
          0, candidate_predicates.size() - 1)];
      const std::vector<int>& range_entities =
          entities_of_class_[predicates_[p].range_class];
      if (range_entities.empty()) continue;
      int o = range_entities[rng.Uniform(0, range_entities.size() - 1)];
      store_.Add(entity.term, predicates_[p].term, entities_[o].term);
      facts_of_entity_[e].push_back(Fact{p, o});
    }
  }
}

graph::LabelId KnowledgeBase::TypeLabelOf(rdf::TermId term) const {
  auto it = entity_index_of_term_.find(term);
  if (it == entity_index_of_term_.end()) return graph::kInvalidLabel;
  return classes_[entities_[it->second].class_index].term;
}

std::function<graph::LabelId(rdf::TermId)> KnowledgeBase::TypeResolver()
    const {
  return [this](rdf::TermId term) { return TypeLabelOf(term); };
}

}  // namespace simj::workload

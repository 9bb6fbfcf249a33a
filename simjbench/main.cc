// simjbench: the benchmark's measuring binary. run.py drives it in two
// steps, each in its own process:
//
//   simjbench gen --workload W --seed N --dir D
//       Generates the workload's inputs from the seed and writes them to D
//       (workload text, template-store text, the seed). Nothing here is
//       timed.
//   simjbench run --workload W --dir D --seconds S --trace 0|1
//       Reads only the inputs in D. Runs passes over the workload's items
//       for S seconds (and at least kMinPasses passes and kMinItems items),
//       timing a few set-ups before each pass, then runs the untimed
//       correctness gate. With --trace 1 the gate's replay of the pass (and
//       of the set-up) runs with spans on, giving the per-layer aggregates.
//       Prints one JSON record of raw samples, counters and check results on
//       stdout; run.py turns it into metrics.
//
// Everything is single-threaded (SimJParams::num_threads = 1).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/join.h"
#include "core/similarity.h"
#include "replay.h"
#include "span.h"
#include "templates/qa.h"
#include "templates/template.h"
#include "util/mem.h"
#include "util/rng.h"
#include "workload/io.h"
#include "workload/knowledge_base.h"
#include "workload/question_gen.h"
#include "workload/synthetic.h"

namespace simjbench {
namespace {

namespace core = simj::core;
namespace graph = simj::graph;
namespace tmpl = simj::tmpl;
namespace workload = simj::workload;
using simj::StatusOr;

// Set-up takes a few ms. Before every pass a run builds and drops this many
// set-ups, so that set-up is sampled across the whole run, at the same host
// speeds as the passes (see README.md, "Steadiness").
constexpr int kSetupsPerPass = 5;
constexpr int kTracedSetupReps = 5;
constexpr int kTracedPasses = 2;
// p99 needs 1000 samples to have 10 beyond it.
constexpr int64_t kMinItems = 1000;
// run.py reports times at the 95th percentile over passes; with 20 or more
// passes that is never the slowest.
constexpr size_t kMinPasses = 20;
// Oracle checks per decision stage (pruned structural / probabilistic,
// rejected, accepted).
constexpr int kOraclePerStage = 6;

// --- qa_offline: the offline path of bench_table4_qa_systems, on its
// knowledge base and training workload; the seed orders the workload. ---
constexpr uint64_t kKbSeed = 77;
constexpr uint64_t kTrainSeed = 78;
constexpr int kOfflineQuestions = 400;
constexpr int kOfflineDistractors = 200;
constexpr int kOfflineTau = 1;
constexpr double kOfflineAlpha = 0.6;

// --- qa_online: answering a held-out question stream over the store
// qa_offline builds; the seed orders the stream. ---
// 200 questions take ~0.8 s, so a run has ~25 passes; it answers each
// question several times and times at least kMinItems answers.
constexpr uint64_t kStreamSeed = 1000000;  // not the training seed
constexpr int kOnlineQuestions = 200;

// --- er_verify: the graphs and join settings of Fig. 12's hardest cell
// (bench_fig12 defaults), on 60x60 graphs instead of 120x120 so that a pass
// takes ~0.6 s and a run has ~30 passes (see README.md). ---
constexpr uint64_t kErDataSeed = 100;
constexpr int kErSize = 60;
constexpr int kErVertices = 10;
constexpr int kErEdges = 16;
constexpr int kErLabels = 3;
constexpr int kErTau = 5;
constexpr double kErAlpha = 0.8;
constexpr int kErGroups = 8;

workload::KbConfig KbConfig() {
  workload::KbConfig config;
  config.seed = kKbSeed;
  return config;
}

workload::SyntheticConfig ErConfig() {
  workload::SyntheticConfig config;
  config.seed = kErDataSeed;
  config.num_certain = kErSize;
  config.num_uncertain = kErSize;
  config.num_vertices = kErVertices;
  config.num_edges = kErEdges;
  config.labels_per_vertex = kErLabels;
  return config;
}

core::SimJParams JoinParams(int tau, double alpha, int groups) {
  core::SimJParams params;
  params.tau = tau;
  params.alpha = alpha;
  params.group_count = groups;
  params.num_threads = 1;
  return params;
}

// ---------------------------------------------------------------- I/O ----

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "simjbench: %s\n", message.c_str());
  std::exit(1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Die("cannot write " + path);
}

// seed.txt: the run's seed, written by `gen`. Everything else the run needs
// is a constant of this file or one of the input texts.
uint64_t ReadSeed(const std::string& dir) {
  std::istringstream in(ReadFile(dir + "/seed.txt"));
  uint64_t seed = 0;
  if (!(in >> seed)) Die("seed.txt holds no seed");
  return seed;
}

// Seeds the oracle sample of the correctness gate; distinct from the uses of
// the run's seed itself.
uint64_t SampleSeed(uint64_t seed) { return seed * 1000003ULL + 17; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------ record ----

struct Record {
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> item_ms;
  double peak_rss_mb = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, double>> info;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;
  // Traced replay (--trace 1 only).
  bool traced = false;
  Tracer tracer;
  std::vector<double> traced_pass_s;
  std::vector<double> replay_pass_s;  // the same replay with spans off
  int traced_setups = 0;
  std::vector<std::pair<std::string, double>> counters;

  void AddCheck(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  Tracer* tracer_or_null() { return traced ? &tracer : nullptr; }

  std::string ToJson(const std::string& workload_name) const {
    std::string out = "{\"workload\":" + JsonString(workload_name);
    out += ",\"setup_s\":" + JsonArray(setup_s);
    out += ",\"pass_s\":" + JsonArray(pass_s);
    out += ",\"item_ms\":" + JsonArray(item_ms);
    out += ",\"peak_rss_mb\":" + JsonNumber(peak_rss_mb);
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"info\":{";
    for (size_t i = 0; i < info.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonString(info[i].first) + ":" + JsonNumber(info[i].second);
    }
    out += "},\"checks\":[";
    for (size_t i = 0; i < checks.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"name\":" + JsonString(checks[i].name) +
             ",\"ok\":" + (checks[i].ok ? "true" : "false") +
             ",\"detail\":" + JsonString(checks[i].detail) + "}";
    }
    out += "]";
    if (traced) {
      out += ",\"trace\":{\"passes\":" + std::to_string(traced_pass_s.size());
      out += ",\"setups\":" + std::to_string(traced_setups);
      out += ",\"pass_s\":" + JsonArray(traced_pass_s);
      out += ",\"replay_pass_s\":" + JsonArray(replay_pass_s);
      out += ",\"spans\":{";
      for (int root : {kSetupRoot, kItemRoot}) {
        if (root != kSetupRoot) out += ',';
        out += JsonString(SpanName(root)) + ":{";
        bool first = true;
        for (int id = 0; id < kSpanCount; ++id) {
          const Tracer::Stat& stat = tracer.stat(root, id);
          if (stat.calls == 0) continue;
          if (!first) out += ',';
          first = false;
          out += JsonString(SpanName(id)) +
                 ":{\"calls\":" + std::to_string(stat.calls) +
                 ",\"total_s\":" + JsonNumber(stat.total_s) +
                 ",\"self_s\":" + JsonNumber(stat.self_s) + "}";
        }
        out += "}";
      }
      out += "},\"counters\":{";
      for (size_t i = 0; i < counters.size(); ++i) {
        if (i > 0) out += ',';
        out += JsonString(counters[i].first) + ":" +
               JsonNumber(counters[i].second);
      }
      out += "}}";
    }
    return out + "}";
  }
};

// One untimed warm-up pass, then timed passes until `seconds` have passed,
// at least kMinPasses passes ran and at least kMinItems items were timed.
// Before each pass, `setup()` builds kSetupsPerPass fresh states, each timed
// and then dropped; one untimed burst precedes the first. Every pass must
// reproduce the warm-up's outcome. Returns the warm-up outcome.
//
// peak_rss_mb is read after the warm-up pass, before the first extra set-up:
// it is the memory of one set-up state and a pass, as a Q/A process holds it.
// The timed passes repeat the warm-up's work and allocate no more.
template <typename Outcome, typename SetupFn, typename PassFn>
Outcome TimePasses(double seconds, Record* record, SetupFn setup, PassFn pass) {
  auto setups = [&](std::vector<double>* setup_s) {
    for (int k = 0; k < kSetupsPerPass; ++k) {
      const Clock::time_point start = Clock::now();
      const auto state = setup();
      setup_s->push_back(SecondsSince(start));
    }
  };
  std::vector<double> discard;
  Outcome reference = pass(&discard);
  record->peak_rss_mb =
      static_cast<double>(simj::mem::PeakRssBytes()) / (1024.0 * 1024.0);
  setups(&discard);
  int mismatched = 0;
  const Clock::time_point begin = Clock::now();
  while (SecondsSince(begin) < seconds ||
         record->pass_s.size() < kMinPasses ||
         static_cast<int64_t>(record->item_ms.size()) < kMinItems) {
    setups(&record->setup_s);
    const Clock::time_point start = Clock::now();
    Outcome outcome = pass(&record->item_ms);
    record->pass_s.push_back(SecondsSince(start));
    record->attempted += outcome.attempted;
    record->failed += outcome.failed;
    if (!(outcome == reference)) ++mismatched;
  }
  record->AddCheck("passes_deterministic", mismatched == 0,
                   std::to_string(mismatched) + " of " +
                       std::to_string(record->pass_s.size()) +
                       " timed passes differ from the warm-up pass");
  return reference;
}

// Runs `replay(tracer)` once with spans off (trace 0), or kTracedPasses
// times each with spans off and on, alternating (trace 1): the difference
// between the two is what the spans cost. Every run must give the same
// outcome; returns it.
template <typename Outcome, typename ReplayFn>
Outcome RunReplay(Record* record, ReplayFn replay) {
  std::optional<Outcome> first;
  bool stable = true;
  auto run = [&](Tracer* tracer, std::vector<double>* seconds) {
    const Clock::time_point start = Clock::now();
    Outcome outcome = replay(tracer);
    if (seconds != nullptr) seconds->push_back(SecondsSince(start));
    if (!first.has_value()) {
      first.emplace(std::move(outcome));
    } else if (!(outcome == *first)) {
      stable = false;
    }
  };
  if (!record->traced) {
    run(nullptr, nullptr);
  } else {
    for (int p = 0; p < kTracedPasses; ++p) {
      run(nullptr, &record->replay_pass_s);
      run(&record->tracer, &record->traced_pass_s);
    }
  }
  record->AddCheck("replay_deterministic", stable,
                   "every replay pass gives the same outcome");
  return *std::move(first);
}

// Replays the set-up once untraced (trace 0), or kTracedSetupReps times
// under set-up root spans (trace 1). `build(tracer)` returns the replayed
// state, which is destroyed only after its root span has closed;
// `matches(state)` compares it with the timed set-up's. Returns whether
// every replay matched.
template <typename State, typename BuildFn, typename MatchFn>
bool ReplaySetups(Record* record, BuildFn build, MatchFn matches) {
  const int reps = record->traced ? kTracedSetupReps : 1;
  bool all = true;
  for (int r = 0; r < reps; ++r) {
    std::optional<State> state;
    {
      Span root(record->tracer_or_null(), kSetupRoot);
      state.emplace(build(record->tracer_or_null()));
    }
    all = matches(*state) && all;
  }
  record->traced_setups = record->traced ? reps : 0;
  return all;
}

// ---------------------------------------------------------- joins ----

// Outcome of one pass of a join workload: every uncertain graph joined in
// turn against all of D (one core::SimJoin per item), plus template
// generation for its matched pairs on qa_offline.
struct JoinOutcome {
  core::JoinStats stats;
  std::vector<std::pair<int, int>> accepted;  // (q_index, g_index)
  int64_t generated = 0;
  int64_t generate_failed = 0;
  int64_t templates = 0;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Every JoinStats counter (the timings excluded).
  static auto Counters(const core::JoinStats& s) {
    return std::make_tuple(s.total_pairs, s.pruned_structural,
                           s.pruned_probabilistic, s.candidates, s.results,
                           s.verify.worlds_enumerated,
                           s.verify.worlds_pruned_by_bound,
                           s.verify.worlds_accepted_by_upper_bound,
                           s.verify.ged_calls, s.verify.ged_aborted);
  }
  bool operator==(const JoinOutcome& o) const {
    return Counters(stats) == Counters(o.stats) && accepted == o.accepted &&
           generated == o.generated && generate_failed == o.generate_failed &&
           templates == o.templates;
  }
};

std::string DescribeStats(const core::JoinStats& s) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "pairs=%lld pruned_structural=%lld pruned_probabilistic=%lld "
                "candidates=%lld results=%lld ged_calls=%lld worlds=%lld",
                static_cast<long long>(s.total_pairs),
                static_cast<long long>(s.pruned_structural),
                static_cast<long long>(s.pruned_probabilistic),
                static_cast<long long>(s.candidates),
                static_cast<long long>(s.results),
                static_cast<long long>(s.verify.ged_calls),
                static_cast<long long>(s.verify.worlds_enumerated));
  return buffer;
}

// The inputs template generation needs next to the join (qa_offline only).
struct TemplateContext {
  const workload::Workload* work;
  const workload::JoinSides* sides;
};

struct JoinData {
  const std::vector<graph::LabeledGraph>* d;
  const std::vector<graph::UncertainGraph>* u;
  // Each uncertain graph as a one-element U, built before timing.
  std::vector<std::vector<graph::UncertainGraph>> probes;
  graph::LabelDictionary* dict;
  core::SimJParams params;
  std::optional<TemplateContext> templates;

  JoinData(const std::vector<graph::LabeledGraph>& d_in,
           const std::vector<graph::UncertainGraph>& u_in,
           graph::LabelDictionary& dict_in, const core::SimJParams& params_in)
      : d(&d_in), u(&u_in), dict(&dict_in), params(params_in) {
    for (const graph::UncertainGraph& g : u_in) probes.push_back({g});
  }
};

// Generates the template of one matched pair and adds it to the store,
// counting the outcome. `trace` wraps the two calls in spans (replay only).
void AddTemplate(const TemplateContext& ctx, const core::MatchedPair& pair,
                 int g_index, graph::LabelDictionary& dict, Tracer* tracer,
                 tmpl::TemplateStore* store, JoinOutcome* outcome) {
  StatusOr<tmpl::Template> t = Traced(tracer, kGenerate, [&] {
    return tmpl::GenerateTemplate(
        ctx.work->sparql_queries[pair.q_index],
        ctx.sides->d_graphs[pair.q_index], ctx.sides->u_parsed[g_index],
        ctx.sides->u_graphs[g_index], pair.mapping, dict);
  });
  if (!t.ok()) {
    ++outcome->generate_failed;
    return;
  }
  ++outcome->generated;
  Traced(tracer, kStoreAdd,
         [&] { return store->Add(*std::move(t), dict); });
}

void FinishOutcome(JoinOutcome* outcome, const tmpl::TemplateStore& store) {
  outcome->templates = store.size();
  // Operations that can fail: verified candidates (a BoundedGed that hit
  // max_expansions fails its candidate) and template generations.
  outcome->attempted =
      outcome->stats.candidates + outcome->generated + outcome->generate_failed;
  outcome->failed = outcome->stats.verify.ged_aborted + outcome->generate_failed;
}

JoinOutcome JoinPass(const JoinData& data, std::vector<double>* item_ms) {
  JoinOutcome outcome;
  tmpl::TemplateStore store;
  for (size_t i = 0; i < data.probes.size(); ++i) {
    const Clock::time_point start = Clock::now();
    core::JoinResult result =
        core::SimJoin(*data.d, data.probes[i], data.params, *data.dict);
    for (const core::MatchedPair& pair : result.pairs) {
      if (data.templates.has_value()) {
        AddTemplate(*data.templates, pair, static_cast<int>(i), *data.dict,
                    nullptr, &store, &outcome);
      }
      outcome.accepted.emplace_back(pair.q_index, static_cast<int>(i));
    }
    item_ms->push_back(SecondsSince(start) * 1e3);
    core::MergeJoinStats(result.stats, &outcome.stats);
  }
  FinishOutcome(&outcome, store);
  return outcome;
}

struct ReplayOutcome : JoinOutcome {
  std::vector<Stage> stages;  // per pair, index q * |U| + g
  int64_t live_groups = 0;
};

ReplayOutcome JoinReplayPass(const JoinData& data, Tracer* tracer) {
  ReplayOutcome outcome;
  const size_t num_u = data.u->size();
  outcome.stages.resize(data.d->size() * num_u);
  tmpl::TemplateStore store;
  JoinCounts counts;
  for (size_t i = 0; i < num_u; ++i) {
    Span item(tracer, kItemRoot);
    std::vector<core::MatchedPair> matched;
    for (size_t q = 0; q < data.d->size(); ++q) {
      core::MatchedPair pair;
      const Stage stage = ReplayPair((*data.d)[q], (*data.u)[i], data.params,
                                     *data.dict, tracer, &counts, &pair);
      outcome.stages[q * num_u + i] = stage;
      if (stage != Stage::kAccepted) continue;
      pair.q_index = static_cast<int>(q);
      pair.g_index = static_cast<int>(i);
      matched.push_back(std::move(pair));
    }
    for (const core::MatchedPair& pair : matched) {
      if (data.templates.has_value()) {
        AddTemplate(*data.templates, pair, static_cast<int>(i), *data.dict,
                    tracer, &store, &outcome);
      }
      outcome.accepted.emplace_back(pair.q_index, static_cast<int>(i));
    }
  }
  outcome.stats = counts.stats;
  outcome.live_groups = counts.live_groups;
  FinishOutcome(&outcome, store);
  return outcome;
}

// A pass joins each uncertain graph on its own; its counters and matched
// pairs must equal one SimJoin over all of D x U.
void CheckPerItemEqualsOneJoin(const JoinData& data, const JoinOutcome& timed,
                               Record* record) {
  core::JoinResult whole =
      core::SimJoin(*data.d, *data.u, data.params, *data.dict);
  JoinOutcome as_one;
  as_one.stats = whole.stats;
  for (const core::MatchedPair& pair : whole.pairs) {
    as_one.accepted.emplace_back(pair.q_index, pair.g_index);
  }
  JoinOutcome per_item = timed;
  per_item.generated = per_item.generate_failed = per_item.templates = 0;
  std::sort(per_item.accepted.begin(), per_item.accepted.end());
  record->AddCheck("per_item_joins_equal_one_join", per_item == as_one,
                   "per item: " + DescribeStats(timed.stats) +
                       " | one join: " + DescribeStats(whole.stats));
}

// The join gate: the replay must reproduce the timed pass exactly, and a
// seeded sample of pairs from every decision stage must agree with the
// exact ComputeSimP oracle.
void JoinGate(const JoinData& data, const JoinOutcome& timed,
              uint64_t sample_seed, Record* record) {
  CheckPerItemEqualsOneJoin(data, timed, record);
  ReplayOutcome replay = RunReplay<ReplayOutcome>(
      record, [&](Tracer* tracer) { return JoinReplayPass(data, tracer); });
  const JoinOutcome& replay_base = replay;
  record->AddCheck("replay_equals_timed_pass", replay_base == timed,
                   "replay: " + DescribeStats(replay.stats) +
                       " templates=" + std::to_string(replay.templates) +
                       " | timed: " + DescribeStats(timed.stats) +
                       " templates=" + std::to_string(timed.templates));

  // Oracle sample, stratified by the stage the replay recorded.
  std::vector<std::vector<size_t>> by_stage(4);
  for (size_t p = 0; p < replay.stages.size(); ++p) {
    by_stage[static_cast<int>(replay.stages[p])].push_back(p);
  }
  simj::Rng rng(sample_seed);
  const size_t num_u = data.u->size();
  int checked = 0;
  int disagree = 0;
  std::string first_disagreement;
  for (std::vector<size_t>& pairs : by_stage) {
    rng.Shuffle(pairs);
    for (size_t k = 0; k < pairs.size() && k < kOraclePerStage; ++k) {
      const size_t q = pairs[k] / num_u;
      const size_t g = pairs[k] % num_u;
      const core::SimPResult exact = core::ComputeSimP(
          (*data.d)[q], (*data.u)[g], data.params.tau, *data.dict,
          data.params.ged_options);
      const bool oracle =
          exact.probability >= data.params.alpha - core::kSimPEpsilon;
      const bool joined =
          replay.stages[pairs[k]] == Stage::kAccepted;
      ++checked;
      if (oracle != joined) {
        ++disagree;
        if (first_disagreement.empty()) {
          first_disagreement = " first: q=" + std::to_string(q) +
                               " g=" + std::to_string(g);
        }
      }
    }
  }
  record->AddCheck("decisions_match_compute_simp", disagree == 0,
                   std::to_string(checked) + " sampled pairs, " +
                       std::to_string(disagree) + " disagree" +
                       first_disagreement);

  if (record->traced) {
    const core::JoinStats& s = replay.stats;
    record->counters = {
        {"total_pairs", static_cast<double>(s.total_pairs)},
        {"pruned_structural", static_cast<double>(s.pruned_structural)},
        {"pruned_probabilistic", static_cast<double>(s.pruned_probabilistic)},
        {"candidates", static_cast<double>(s.candidates)},
        {"results", static_cast<double>(s.results)},
        {"worlds_enumerated", static_cast<double>(s.verify.worlds_enumerated)},
        {"worlds_pruned_by_bound",
         static_cast<double>(s.verify.worlds_pruned_by_bound)},
        {"worlds_accepted_by_upper_bound",
         static_cast<double>(s.verify.worlds_accepted_by_upper_bound)},
        {"ged_calls", static_cast<double>(s.verify.ged_calls)},
        {"ged_aborted", static_cast<double>(s.verify.ged_aborted)},
        {"live_groups", static_cast<double>(replay.live_groups)},
        {"generated", static_cast<double>(replay.generated)},
        {"generate_failed", static_cast<double>(replay.generate_failed)},
        {"templates", static_cast<double>(replay.templates)},
    };
  }
}

void AddJoinInfo(const JoinData& data, const JoinOutcome& outcome,
                 Record* record) {
  record->info.emplace_back("d", static_cast<double>(data.d->size()));
  record->info.emplace_back("u", static_cast<double>(data.u->size()));
  record->info.emplace_back("candidates",
                            static_cast<double>(outcome.stats.candidates));
  record->info.emplace_back("results",
                            static_cast<double>(outcome.stats.results));
  record->info.emplace_back("ged_calls",
                            static_cast<double>(outcome.stats.verify.ged_calls));
  if (data.templates.has_value()) {
    record->info.emplace_back("templates",
                              static_cast<double>(outcome.templates));
  }
}

// ------------------------------------------------------ qa_offline ----

struct OfflineState {
  std::unique_ptr<workload::KnowledgeBase> kb;
  workload::Workload work;
  workload::JoinSides sides;
};

// `replay` builds the join sides through ReplayBuildJoinSides instead of
// workload::BuildJoinSides.
OfflineState OfflineSetup(const workload::KbConfig& kb_config,
                          const std::string& text, bool replay,
                          Tracer* tracer) {
  OfflineState state;
  state.kb = Traced(tracer, kKbBuild, [&] {
    return std::make_unique<workload::KnowledgeBase>(kb_config);
  });
  StatusOr<workload::Workload> work = Traced(tracer, kParseText, [&] {
    return workload::ParseWorkloadText(text, state.kb->dict());
  });
  if (!work.ok()) Die("workload text: " + work.status().ToString());
  state.work = *std::move(work);
  if (replay) {
    state.sides = ReplayBuildJoinSides(*state.kb, state.work, tracer);
  } else {
    state.sides = workload::BuildJoinSides(*state.kb, state.work);
  }
  return state;
}

void RunQaOffline(const std::string& dir, double seconds, Record* record) {
  const workload::KbConfig kb_config = KbConfig();
  const std::string text = ReadFile(dir + "/workload.txt");

  auto setup = [&] { return OfflineSetup(kb_config, text, false, nullptr); };
  OfflineState state = setup();
  JoinData data(state.sides.d, state.sides.u, state.kb->dict(),
                JoinParams(kOfflineTau, kOfflineAlpha, 1));
  data.templates = TemplateContext{&state.work, &state.sides};

  const JoinOutcome timed = TimePasses<JoinOutcome>(
      seconds, record, setup,
      [&](std::vector<double>* item_ms) { return JoinPass(data, item_ms); });

  const workload::JoinSides& sides = state.sides;
  const bool sides_equal = ReplaySetups<OfflineState>(
      record,
      [&](Tracer* tracer) { return OfflineSetup(kb_config, text, true, tracer); },
      [&](const OfflineState& replayed) {
        const workload::JoinSides& r = replayed.sides;
        return r.d.size() == sides.d.size() && r.u.size() == sides.u.size() &&
               r.parse_failures == sides.parse_failures &&
               r.build_failures == sides.build_failures;
      });
  record->AddCheck("replay_build_join_sides", sides_equal,
                   "|D|=" + std::to_string(sides.d.size()) +
                       " |U|=" + std::to_string(sides.u.size()) +
                       " parse_failures=" +
                       std::to_string(sides.parse_failures) +
                       " build_failures=" +
                       std::to_string(sides.build_failures));

  JoinGate(data, timed, SampleSeed(ReadSeed(dir)), record);
  AddJoinInfo(data, timed, record);
  record->info.emplace_back("parse_failures", state.sides.parse_failures);
  record->info.emplace_back("build_failures", state.sides.build_failures);
}

// ------------------------------------------------------- qa_online ----

struct OnlineState {
  std::unique_ptr<workload::KnowledgeBase> kb;
  tmpl::TemplateStore store;
};

OnlineState OnlineSetup(const workload::KbConfig& kb_config,
                        const std::string& store_text, Tracer* tracer) {
  OnlineState state;
  state.kb = Traced(tracer, kKbBuild, [&] {
    return std::make_unique<workload::KnowledgeBase>(kb_config);
  });
  StatusOr<tmpl::TemplateStore> store = Traced(tracer, kParseStore, [&] {
    return tmpl::ParseTemplates(store_text, state.kb->dict());
  });
  if (!store.ok()) Die("template store: " + store.status().ToString());
  state.store = *std::move(store);
  return state;
}

using Rows = std::vector<std::vector<simj::rdf::TermId>>;

Rows AsSet(Rows rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// What one question got: no answer (template_index -1) or a template and
// its rows, in the order Answer returned them.
struct AnswerRecord {
  bool answered = false;
  int template_index = -1;
  Rows rows;
  bool operator==(const AnswerRecord& o) const {
    return answered == o.answered && template_index == o.template_index &&
           rows == o.rows;
  }
};

AnswerRecord Summarize(const StatusOr<tmpl::QaAnswer>& answer) {
  AnswerRecord record;
  if (!answer.ok()) return record;
  record.answered = true;
  record.template_index = answer->template_index;
  record.rows = answer->rows;
  return record;
}

struct OnlineOutcome {
  std::vector<AnswerRecord> answers;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool operator==(const OnlineOutcome& o) const {
    return answers == o.answers;
  }
};

void RunQaOnline(const std::string& dir, double seconds, Record* record) {
  const workload::KbConfig kb_config = KbConfig();
  const std::string store_text = ReadFile(dir + "/store.txt");
  const std::string questions_text = ReadFile(dir + "/questions.txt");

  auto setup = [&] { return OnlineSetup(kb_config, store_text, nullptr); };
  OnlineState state = setup();
  workload::KnowledgeBase& kb = *state.kb;

  // Question stream and gold rows (untimed).
  StatusOr<workload::Workload> stream =
      workload::ParseWorkloadText(questions_text, kb.dict());
  if (!stream.ok()) Die("question stream: " + stream.status().ToString());
  std::vector<Rows> gold;
  for (const workload::QuestionInstance& question : stream->questions) {
    gold.push_back(
        AsSet(kb.store().Evaluate(question.gold_query.ToBgp(), kb.dict())));
  }

  const tmpl::TemplateQa qa(&state.store, &kb.lexicon(), &kb.store(),
                            &kb.dict());
  // A question fails when it gets no answer or rows other than the gold
  // query's (compared as sets).
  auto score = [&](OnlineOutcome* outcome) {
    outcome->attempted = static_cast<int64_t>(outcome->answers.size());
    for (size_t i = 0; i < outcome->answers.size(); ++i) {
      const AnswerRecord& a = outcome->answers[i];
      if (!a.answered || AsSet(a.rows) != gold[i]) ++outcome->failed;
    }
  };
  const OnlineOutcome timed = TimePasses<OnlineOutcome>(
      seconds, record, setup, [&](std::vector<double>* item_ms) {
        OnlineOutcome outcome;
        outcome.answers.reserve(stream->questions.size());
        for (const workload::QuestionInstance& question : stream->questions) {
          const Clock::time_point start = Clock::now();
          StatusOr<tmpl::QaAnswer> answer = qa.Answer(question.text);
          item_ms->push_back(SecondsSince(start) * 1e3);
          outcome.answers.push_back(Summarize(answer));
        }
        score(&outcome);
        return outcome;
      });

  const bool store_equal = ReplaySetups<OnlineState>(
      record,
      [&](Tracer* tracer) {
        return OnlineSetup(kb_config, store_text, tracer);
      },
      [&](const OnlineState& replayed) {
        return replayed.store.size() == state.store.size();
      });
  record->AddCheck("replay_parse_templates", store_equal,
                   std::to_string(state.store.size()) + " templates");

  AnswerCounts counts;
  const OnlineOutcome replay = RunReplay<OnlineOutcome>(
      record, [&](Tracer* tracer) {
        OnlineOutcome outcome;
        for (size_t i = 0; i < stream->questions.size(); ++i) {
          Span item(tracer, kItemRoot);
          outcome.answers.push_back(Summarize(
              ReplayAnswer(stream->questions[i].text, state.store,
                           kb.lexicon(), kb.store(), kb.dict(), tracer,
                           &counts)));
        }
        return outcome;
      });
  int differ = 0;
  for (size_t i = 0; i < timed.answers.size(); ++i) {
    if (!(replay.answers[i] == timed.answers[i])) ++differ;
  }
  record->AddCheck("replay_equals_answer", differ == 0,
                   std::to_string(differ) + " of " +
                       std::to_string(timed.answers.size()) +
                       " questions answered differently by the replay");

  int64_t answered = 0;
  for (const AnswerRecord& a : timed.answers) answered += a.answered ? 1 : 0;
  record->info.emplace_back("templates", state.store.size());
  record->info.emplace_back("questions",
                            static_cast<double>(timed.answers.size()));
  record->info.emplace_back("answered", static_cast<double>(answered));
  record->info.emplace_back("answered_correctly",
                            static_cast<double>(timed.attempted - timed.failed));
  if (record->traced) {
    record->counters = {
        {"questions", static_cast<double>(counts.questions)},
        {"align_calls", static_cast<double>(counts.align_calls)},
        {"align_passed", static_cast<double>(counts.align_passed)},
        {"evaluations", static_cast<double>(counts.evaluations)},
        {"rows", static_cast<double>(counts.rows)},
    };
  }
}

// ------------------------------------------------------- er_verify ----

void RunErVerify(const std::string& dir, double seconds, Record* record) {
  const uint64_t seed = ReadSeed(dir);
  const workload::SyntheticConfig er_config = ErConfig();

  auto setup = [&] { return workload::MakeErDataset(er_config); };
  workload::SyntheticDataset data = setup();
  // The run's seed orders D and U; the pairs, hence the work, are the same
  // on every seed (see README.md, "er_verify").
  simj::Rng order(seed);
  order.Shuffle(data.certain);
  order.Shuffle(data.uncertain);

  JoinData join(data.certain, data.uncertain, data.dict,
                JoinParams(kErTau, kErAlpha, kErGroups));
  const JoinOutcome timed = TimePasses<JoinOutcome>(
      seconds, record, setup,
      [&](std::vector<double>* item_ms) { return JoinPass(join, item_ms); });

  const bool same = ReplaySetups<workload::SyntheticDataset>(
      record,
      [&](Tracer* tracer) {
        return Traced(tracer, kDatasetGen,
                      [&] { return workload::MakeErDataset(er_config); });
      },
      [&](const workload::SyntheticDataset& again) {
        return again.certain.size() == data.certain.size() &&
               again.uncertain.size() == data.uncertain.size();
      });
  record->AddCheck("replay_dataset_gen", same,
                   std::to_string(data.certain.size()) + "x" +
                       std::to_string(data.uncertain.size()));

  JoinGate(join, timed, SampleSeed(seed), record);
  AddJoinInfo(join, timed, record);
}

// ------------------------------------------------------------- gen ----

// The training workload qa_offline joins.
workload::Workload TrainingWorkload(workload::KnowledgeBase& kb) {
  workload::WorkloadConfig train;
  train.seed = kTrainSeed;
  train.num_questions = kOfflineQuestions;
  train.distractor_queries = kOfflineDistractors;
  return workload::GenerateWorkload(kb, train);
}

// The lines of `text` in an order drawn from `seed`.
std::string ShuffledLines(const std::string& text, uint64_t seed) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  simj::Rng rng(seed);
  rng.Shuffle(lines);
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// Store text of qa_offline's workload, built by the path qa_offline times
// (as one SimJoin over D x U).
std::string ReferenceStoreText() {
  workload::KnowledgeBase kb(KbConfig());
  const workload::Workload work = TrainingWorkload(kb);
  const workload::JoinSides sides = workload::BuildJoinSides(kb, work);
  const core::JoinResult joined =
      core::SimJoin(sides.d, sides.u,
                    JoinParams(kOfflineTau, kOfflineAlpha, 1), kb.dict());
  tmpl::TemplateStore store;
  for (const core::MatchedPair& pair : joined.pairs) {
    StatusOr<tmpl::Template> t = tmpl::GenerateTemplate(
        work.sparql_queries[pair.q_index], sides.d_graphs[pair.q_index],
        sides.u_parsed[pair.g_index], sides.u_graphs[pair.g_index],
        pair.mapping, kb.dict());
    if (t.ok()) store.Add(*std::move(t), kb.dict());
  }
  return tmpl::SerializeTemplates(store, kb.dict());
}

void Generate(const std::string& name, uint64_t seed, const std::string& dir) {
  if (name == "qa_offline") {
    workload::KnowledgeBase kb(KbConfig());
    const workload::Workload work = TrainingWorkload(kb);
    // The pairs, hence the work, are the same on every seed (README.md).
    WriteFile(dir + "/workload.txt",
              ShuffledLines(workload::SerializeWorkload(work, kb.dict()),
                            seed));
  } else if (name == "qa_online") {
    WriteFile(dir + "/store.txt", ReferenceStoreText());
    workload::KnowledgeBase kb(KbConfig());
    workload::WorkloadConfig config;
    config.seed = kStreamSeed;
    config.num_questions = kOnlineQuestions;
    const workload::Workload stream = workload::GenerateWorkload(kb, config);
    // The questions, hence the work, are the same on every seed (README.md).
    WriteFile(dir + "/questions.txt",
              ShuffledLines(workload::SerializeWorkload(stream, kb.dict()),
                            seed));
  } else if (name != "er_verify") {
    Die("unknown workload " + name);
  }
  WriteFile(dir + "/seed.txt", std::to_string(seed) + "\n");
}

// ------------------------------------------------------------ main ----

int Main(int argc, char** argv) {
  if (argc < 2) Die("usage: simjbench gen|run --workload W ...");
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  auto flag = [&](const std::string& key) {
    auto it = flags.find(key);
    if (it == flags.end()) Die("missing --" + key);
    return it->second;
  };
  const std::string name = flag("workload");
  const std::string dir = flag("dir");
  if (command == "gen") {
    Generate(name, std::stoull(flag("seed")), dir);
    return 0;
  }
  if (command != "run") Die("unknown command " + command);
  const double seconds = std::stod(flag("seconds"));
  Record record;
  record.traced = flag("trace") == "1";
  if (name == "qa_offline") {
    RunQaOffline(dir, seconds, &record);
  } else if (name == "qa_online") {
    RunQaOnline(dir, seconds, &record);
  } else if (name == "er_verify") {
    RunErVerify(dir, seconds, &record);
  } else {
    Die("unknown workload " + name);
  }
  std::printf("%s\n", record.ToJson(name).c_str());
  return 0;
}

}  // namespace
}  // namespace simjbench

int main(int argc, char** argv) { return simjbench::Main(argc, argv); }

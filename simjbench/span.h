// In-memory span recorder for the traced replay.
//
// Spans are opened and closed around calls into the simj layers from the
// benchmark's own code; nothing inside src/ is instrumented. Each span is
// aggregated by name as it closes: call count, total time, and self time
// (its duration minus the time covered by its child spans, the spans opened
// while it was the innermost open span), separately under each root span
// (set-up or item), so a layer called in both phases is split by phase.
// The aggregate is written out once,
// when the run ends. A null Tracer* turns every Span into a no-op, so the
// same replay code runs untraced for the correctness gate.

#ifndef SIMJBENCH_SPAN_H_
#define SIMJBENCH_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simjbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Span names, one per layer function the replays call. "item.*" spans are
// the roots: one per request (a question, or one uncertain graph joined
// against D); "setup.*" spans are the roots of a set-up replay.
enum SpanId : int {
  kSetupRoot,
  kItemRoot,
  kKbBuild,
  kParseText,
  kQueryGraph,
  kParseQuestion,
  kUncertainBuild,
  kParseStore,
  kDatasetGen,
  kCss,
  kPartition,
  kVerify,
  kGenerate,
  kStoreAdd,
  kNormalize,
  kQuestionTree,
  kAlign,
  kTreeEdit,
  kSlotLink,
  kEvaluate,
  kSpanCount,
};

inline const char* SpanName(int id) {
  static const char* const kNames[kSpanCount] = {
      "setup",
      "item",
      "workload.kb_build",
      "workload.parse_text",
      "sparql.query_graph",
      "nlp.parse_question",
      "nlp.uncertain_build",
      "templates.parse_store",
      "workload.dataset_gen",
      "ged.css_pair",
      "core.partition",
      "core.verify",
      "templates.generate",
      "templates.store_add",
      "nlp.normalize",
      "nlp.question_tree",
      "nlp.align",
      "nlp.tree_edit",
      "nlp.slot_link",
      "rdf.evaluate",
  };
  return kNames[id];
}

class Tracer {
 public:
  struct Stat {
    int64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  void Begin(int id) { stack_.push_back(Frame{id, Clock::now(), {}}); }

  void End() {
    const Clock::time_point now = Clock::now();
    const int root = stack_.front().id;
    const Frame frame = stack_.back();
    stack_.pop_back();
    const Clock::duration elapsed = now - frame.start;
    Stat& stat = stats_[root][frame.id];
    ++stat.calls;
    stat.total_s += std::chrono::duration<double>(elapsed).count();
    stat.self_s +=
        std::chrono::duration<double>(elapsed - frame.children).count();
    if (!stack_.empty()) stack_.back().children += elapsed;
  }

  // Aggregate of span `id` over the calls made under root span `root`
  // (kSetupRoot or kItemRoot; a root's own row is stat(root, root)).
  const Stat& stat(int root, int id) const { return stats_[root][id]; }

 private:
  struct Frame {
    int id;
    Clock::time_point start;
    Clock::duration children;
  };
  std::vector<Frame> stack_;
  Stat stats_[kSpanCount][kSpanCount];
};

class Span {
 public:
  Span(Tracer* tracer, int id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// Runs fn() inside a span named `id` and returns its result.
template <typename Fn>
auto Traced(Tracer* tracer, int id, Fn&& fn) {
  Span span(tracer, id);
  return fn();
}

}  // namespace simjbench

#endif  // SIMJBENCH_SPAN_H_

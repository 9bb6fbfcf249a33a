#include "util/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "util/log.h"
#include "util/sync.h"

// Linux delivers SIGEV_THREAD_ID timer expirations to one specific thread;
// glibc only started exposing the sigevent spellings recently, so provide
// the (stable, kernel-ABI) fallbacks for older headers.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

// The profiler's SIGPROF handler calls backtrace(), whose unwinder TSan
// does not consider signal-safe; cluster_sim_test's process transport
// self-disables under TSan for the same class of reason. The rest of the
// profiler (schema emission, batch merging) stays live.
#if defined(__SANITIZE_THREAD__)
#define SIMJ_PROFILER_UNDER_TSAN 1
#endif
#if !defined(SIMJ_PROFILER_UNDER_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMJ_PROFILER_UNDER_TSAN 1
#endif
#endif

namespace simj::prof {

namespace {

int ThisTid() { return static_cast<int>(::syscall(SYS_gettid)); }

// Linux encodes "the scheduling CPU-time clock of thread `tid`" as
// ((~tid) << 3) | 6 (CPUCLOCK_SCHED with the per-thread bit) — the same
// value pthread_getcpuclockid computes. Built from the raw tid because
// StartProfiling arms timers for *other* threads, where no pthread_t is at
// hand. timer_create fails cleanly for a tid that no longer exists, which
// is how stale registrations are pruned.
clockid_t ThreadCpuClockId(int tid) {
  return static_cast<clockid_t>(
      ((~static_cast<unsigned int>(tid)) << 3) | 6u);
}

// One raw stack sample. `depth` counts valid leading entries of `frames`
// (leaf-first, as backtrace() returns them).
struct RawSample {
  int32_t depth = 0;
  void* frames[kMaxFrames];
};

// Per-thread sample ring, shared lock-free between the SIGPROF handler
// (producer, on the sampled thread) and a draining thread (consumer, under
// the registry mutex). write_pos advances with release order only after
// the sample is fully written; drains read it with acquire, so a drain
// never observes a half-written sample. Overflow is counted, not wrapped:
// a capture keeps its oldest samples and reports exactly what it lost.
struct ThreadSlot {
  std::atomic<int> tid{0};  // 0 = free; claimed by CAS (handler or drainer)
  std::atomic<uint32_t> write_pos{0};
  std::atomic<uint32_t> read_pos{0};
  std::atomic<int64_t> dropped{0};
  std::atomic<int64_t> truncated{0};
  RawSample* ring = nullptr;  // [kRingCapacity]; allocated before arming

  // Normal-context bookkeeping (registry mutex): the thread's timer and
  // the counter baselines that turn the cumulative atomics into per-drain
  // deltas (each drop/truncation is reported by exactly one batch).
  timer_t timer{};
  bool timer_armed = false;
  int64_t base_dropped = 0;
  int64_t base_truncated = 0;
  int64_t shipped_dropped = 0;
  int64_t shipped_truncated = 0;
};

ThreadSlot g_slots[kMaxThreads];

// Handler-visible arming state. g_armed is the handler's gate: stored with
// release order after the rings and handler are set up, so an acquire load
// in the handler sees complete state. g_armed_pid distinguishes a fork()ed
// child inheriting the parent's flags from a genuinely armed process
// (POSIX timers do not survive fork, so the child's state is stale).
std::atomic<bool> g_armed{false};
std::atomic<int> g_armed_pid{0};
std::atomic<int> g_active_hz{0};
// Samples that arrived on a thread no slot could be claimed for (all
// kMaxThreads slots taken); folded into the local section's drop count.
std::atomic<int64_t> g_unattributed{0};

#ifndef SIMJ_PROFILER_UNDER_TSAN
void SigProfHandler(int /*signo*/) {
  // Async-signal-safe only (tools/simj_lint.py signal-handler-safety):
  // raw syscalls, atomics with explicit orders, backtrace(). No
  // allocation, no locks, no symbolization — that all happens at drain
  // time (DESIGN.md §12).
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_acquire)) {
    const int tid = static_cast<int>(::syscall(SYS_gettid));
    ThreadSlot* slot = nullptr;
    for (int i = 0; i < kMaxThreads; ++i) {
      int claimed = g_slots[i].tid.load(std::memory_order_acquire);
      if (claimed == tid) {
        slot = &g_slots[i];
        break;
      }
      if (claimed == 0 &&
          g_slots[i].tid.compare_exchange_strong(
              claimed, tid, std::memory_order_acq_rel)) {
        slot = &g_slots[i];
        break;
      }
    }
    if (slot == nullptr || slot->ring == nullptr) {
      g_unattributed.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint32_t w = slot->write_pos.load(std::memory_order_relaxed);
      const uint32_t r = slot->read_pos.load(std::memory_order_acquire);
      if (w - r >= static_cast<uint32_t>(kRingCapacity)) {
        slot->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& sample =
            slot->ring[w % static_cast<uint32_t>(kRingCapacity)];
        sample.depth = ::backtrace(sample.frames, kMaxFrames);
        if (sample.depth >= kMaxFrames) {
          slot->truncated.fetch_add(1, std::memory_order_relaxed);
        }
        slot->write_pos.store(w + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}
#endif  // SIMJ_PROFILER_UNDER_TSAN

struct Registry {
  Mutex mu;
  std::map<int, std::string> names SIMJ_GUARDED_BY(mu);  // tid -> name
  std::map<std::string, SampleBatch> remote SIMJ_GUARDED_BY(mu);
  std::map<const void*, std::string> symbols SIMJ_GUARDED_BY(mu);
  bool rings_allocated SIMJ_GUARDED_BY(mu) = false;
  bool handler_installed SIMJ_GUARDED_BY(mu) = false;
  int hz SIMJ_GUARDED_BY(mu) = 0;
  std::chrono::steady_clock::time_point start SIMJ_GUARDED_BY(mu);
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();  // simj-lint: allow(new) leaky singleton
  return *registry;
}

bool ArmedInThisProcess() {
  return g_armed.load(std::memory_order_acquire) &&
         g_armed_pid.load(std::memory_order_relaxed) ==
             static_cast<int>(::getpid());
}

// Finds (or CAS-claims) the slot for `tid`. nullptr when all slots are
// taken — that thread simply goes unsampled (no timer is armed for it).
ThreadSlot* ClaimSlot(int tid) {
  for (int i = 0; i < kMaxThreads; ++i) {
    int claimed = g_slots[i].tid.load(std::memory_order_acquire);
    if (claimed == tid) return &g_slots[i];
    if (claimed == 0 &&
        g_slots[i].tid.compare_exchange_strong(claimed, tid,
                                               std::memory_order_acq_rel)) {
      return &g_slots[i];
    }
  }
  return nullptr;
}

bool ArmTimerLocked(Registry& reg, ThreadSlot* slot, int tid)
    SIMJ_REQUIRES(reg.mu) {
  if (slot->timer_armed) return true;
  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tid;
  timer_t timer{};
  if (::timer_create(ThreadCpuClockId(tid), &sev, &timer) != 0) {
    return false;  // typically a thread that has already exited
  }
  const long period_ns =
      std::max<long>(1000000000L / std::max(reg.hz, 1), 100000L);
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (::timer_settime(timer, 0, &spec, nullptr) != 0) {
    ::timer_delete(timer);
    return false;
  }
  slot->timer = timer;
  slot->timer_armed = true;
  return true;
}

#ifndef SIMJ_PROFILER_UNDER_TSAN
// A fork()ed child inherits the parent's flags, rings and registrations,
// but none of its timers or threads: every slot tid is stale. Reset to a
// blank, disarmed profiler so the child can arm itself cleanly.
void ResetAfterForkLocked(Registry& reg) SIMJ_REQUIRES(reg.mu) {
  g_armed.store(false, std::memory_order_release);
  g_active_hz.store(0, std::memory_order_relaxed);
  g_armed_pid.store(0, std::memory_order_relaxed);
  g_unattributed.store(0, std::memory_order_relaxed);
  for (ThreadSlot& slot : g_slots) {
    slot.tid.store(0, std::memory_order_release);
    slot.write_pos.store(0, std::memory_order_relaxed);
    slot.read_pos.store(0, std::memory_order_relaxed);
    slot.dropped.store(0, std::memory_order_relaxed);
    slot.truncated.store(0, std::memory_order_relaxed);
    slot.timer_armed = false;  // the parent's timer ids mean nothing here
    slot.base_dropped = slot.base_truncated = 0;
    slot.shipped_dropped = slot.shipped_truncated = 0;
  }
  reg.names.clear();
  reg.remote.clear();
}
#endif  // SIMJ_PROFILER_UNDER_TSAN

// Rewrites a symbol or thread name so it cannot break the folded-stack
// line structure (space separates the count, semicolon separates frames).
std::string CleanFrameToken(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == ' ') {
      // Demangled signatures put a space after each comma; dropping it
      // keeps "Foo(int, long)" readable as "Foo(int,long)".
      continue;
    }
    out.push_back(c == ';' ? ':' : (c == '\n' ? '_' : c));
  }
  return out.empty() ? std::string("[unknown]") : out;
}

const std::string& SymbolizeLocked(Registry& reg, const void* addr)
    SIMJ_REQUIRES(reg.mu) {
  auto it = reg.symbols.find(addr);
  if (it != reg.symbols.end()) return it->second;
  std::string name;
  Dl_info info{};
  if (::dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled
                                                 : info.dli_sname;
    std::free(demangled);
  } else if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
    // No symbol (static function, stripped object): module + offset keeps
    // the frame stable enough to aggregate and diff.
    const char* base = std::strrchr(info.dli_fname, '/');
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s+0x%zx",
                  base != nullptr ? base + 1 : info.dli_fname,
                  reinterpret_cast<size_t>(addr) -
                      reinterpret_cast<size_t>(info.dli_fbase));
    name = buffer;
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "0x%zx",
                  reinterpret_cast<size_t>(addr));
    name = buffer;
  }
  return reg.symbols[addr] = CleanFrameToken(name);
}

std::string ThreadLabelLocked(Registry& reg, int tid) SIMJ_REQUIRES(reg.mu) {
  auto it = reg.names.find(tid);
  if (it != reg.names.end()) return CleanFrameToken(it->second);
  return "tid-" + std::to_string(tid);
}

// Drains one slot's pending samples into `batch` (symbolized, folded per
// stack) and ships the slot's untold drop/truncation deltas with them.
void DrainSlotLocked(Registry& reg, ThreadSlot& slot, SampleBatch* batch)
    SIMJ_REQUIRES(reg.mu) {
  const int tid = slot.tid.load(std::memory_order_acquire);
  if (tid == 0 || slot.ring == nullptr) return;
  const uint32_t w = slot.write_pos.load(std::memory_order_acquire);
  uint32_t r = slot.read_pos.load(std::memory_order_relaxed);
  const std::string thread_label = ThreadLabelLocked(reg, tid);
  std::map<std::vector<std::string>, int64_t> folded;
  int64_t drained = 0;
  for (; r != w; ++r) {
    const RawSample& sample =
        slot.ring[r % static_cast<uint32_t>(kRingCapacity)];
    const int depth = std::min<int>(sample.depth, kMaxFrames);
    std::vector<std::string> leaf_first;
    leaf_first.reserve(static_cast<size_t>(depth));
    for (int f = 0; f < depth; ++f) {
      leaf_first.push_back(SymbolizeLocked(reg, sample.frames[f]));
    }
    // Strip the profiler's own frames. backtrace() inside a signal handler
    // always yields [handler, kernel signal trampoline, interrupted PC,
    // ...] leaf-first on Linux, so drop the two leading frames by position
    // (the handler has internal linkage and rarely symbolizes by name),
    // plus a defensive check in case the trampoline unwinds to two frames.
    size_t begin = std::min<size_t>(2, leaf_first.size());
    if (begin < leaf_first.size() &&
        leaf_first[begin].find("__restore") != std::string::npos) {
      ++begin;
    }
    std::vector<std::string> root_first(leaf_first.rbegin(),
                                        leaf_first.rend() -
                                            static_cast<long>(begin));
    if (root_first.empty()) root_first.push_back("[truncated]");
    folded[std::move(root_first)] += 1;
    ++drained;
  }
  slot.read_pos.store(w, std::memory_order_release);
  batch->samples += drained;
  for (auto& [frames, count] : folded) {
    FoldedStack stack;
    stack.thread = thread_label;
    stack.frames = frames;
    stack.count = count;
    batch->stacks.push_back(std::move(stack));
  }
  const int64_t total_dropped =
      slot.dropped.load(std::memory_order_relaxed) - slot.base_dropped;
  const int64_t total_truncated =
      slot.truncated.load(std::memory_order_relaxed) - slot.base_truncated;
  batch->dropped += total_dropped - slot.shipped_dropped;
  batch->truncated += total_truncated - slot.shipped_truncated;
  slot.shipped_dropped = total_dropped;
  slot.shipped_truncated = total_truncated;
}

void DisarmTimersLocked(Registry& reg) SIMJ_REQUIRES(reg.mu) {
  (void)reg;
  for (ThreadSlot& slot : g_slots) {
    if (slot.timer_armed) {
      ::timer_delete(slot.timer);
      slot.timer_armed = false;
    }
  }
}

std::string FormatFixed3(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

bool StackLess(const FoldedStack& a, const FoldedStack& b) {
  if (a.thread != b.thread) return a.thread < b.thread;
  return a.frames < b.frames;
}

}  // namespace

void SampleBatch::Normalize() {
  std::map<std::pair<std::string, std::vector<std::string>>, int64_t> agg;
  for (FoldedStack& stack : stacks) {
    agg[{std::move(stack.thread), std::move(stack.frames)}] += stack.count;
  }
  stacks.clear();
  stacks.reserve(agg.size());
  for (auto& [key, count] : agg) {
    FoldedStack stack;
    stack.thread = key.first;
    stack.frames = key.second;
    stack.count = count;
    stacks.push_back(std::move(stack));
  }
}

void SampleBatch::MergeFrom(const SampleBatch& other) {
  samples += other.samples;
  dropped += other.dropped;
  truncated += other.truncated;
  stacks.insert(stacks.end(), other.stacks.begin(), other.stacks.end());
  Normalize();
}

int64_t Profile::TotalSamples() const {
  int64_t total = 0;
  for (const ProfileSection& section : sections) total += section.batch.samples;
  return total;
}

int64_t Profile::TotalDropped() const {
  int64_t total = 0;
  for (const ProfileSection& section : sections) total += section.batch.dropped;
  return total;
}

int64_t Profile::TotalTruncated() const {
  int64_t total = 0;
  for (const ProfileSection& section : sections) {
    total += section.batch.truncated;
  }
  return total;
}

Status StartProfiling(const ProfileOptions& options) {
  if (options.hz < 1 || options.hz > 10000) {
    return InvalidArgumentError("profiler hz out of range [1, 10000]: " +
                                std::to_string(options.hz));
  }
#ifdef SIMJ_PROFILER_UNDER_TSAN
  return FailedPreconditionError(
      "profiler disabled under ThreadSanitizer (backtrace() in a signal "
      "handler is not TSan-safe)");
#else
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  const int pid = static_cast<int>(::getpid());
  if (g_armed.load(std::memory_order_acquire)) {
    if (g_armed_pid.load(std::memory_order_relaxed) == pid) {
      return FailedPreconditionError("profiler already armed");
    }
    ResetAfterForkLocked(reg);  // stale state inherited across fork()
  }
  if (!reg.rings_allocated) {
    for (ThreadSlot& slot : g_slots) {
      slot.ring = new RawSample[kRingCapacity];  // simj-lint: allow(new) preallocated rings, never freed
    }
    reg.rings_allocated = true;
  }
  // Force the unwinder's lazy initialization (it may allocate on first
  // use) outside signal context, before any handler can run.
  void* warmup[4];
  (void)::backtrace(warmup, 4);
  if (!reg.handler_installed) {
    struct sigaction sa {};
    sa.sa_handler = &SigProfHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      return InternalError(std::string("profiler: sigaction(SIGPROF): ") +
                           std::strerror(errno));
    }
    reg.handler_installed = true;
  }
  reg.hz = options.hz;
  // The arming thread is always covered, named or not.
  const int self = ThisTid();
  (void)ClaimSlot(self);
  // Fresh capture: discard inter-capture residue and re-baseline the
  // cumulative loss counters so this capture reports only its own.
  for (ThreadSlot& slot : g_slots) {
    if (slot.tid.load(std::memory_order_acquire) == 0) continue;
    slot.read_pos.store(slot.write_pos.load(std::memory_order_relaxed),
                        std::memory_order_release);
    slot.base_dropped = slot.dropped.load(std::memory_order_relaxed);
    slot.base_truncated = slot.truncated.load(std::memory_order_relaxed);
    slot.shipped_dropped = slot.shipped_truncated = 0;
  }
  g_unattributed.store(0, std::memory_order_relaxed);
  reg.start = std::chrono::steady_clock::now();
  g_armed_pid.store(pid, std::memory_order_relaxed);
  g_active_hz.store(options.hz, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
  // One CPU-time timer per registered live thread. Registered tids whose
  // thread has exited fail timer_create and are pruned.
  int armed_timers = 0;
  for (auto it = reg.names.begin(); it != reg.names.end();) {
    ThreadSlot* slot = ClaimSlot(it->first);
    if (slot != nullptr && ArmTimerLocked(reg, slot, it->first)) {
      ++armed_timers;
      ++it;
    } else if (slot != nullptr && it->first != self) {
      slot->tid.store(0, std::memory_order_release);  // dead thread: recycle
      it = reg.names.erase(it);
    } else {
      ++it;
    }
  }
  ThreadSlot* self_slot = ClaimSlot(self);
  if (self_slot != nullptr && ArmTimerLocked(reg, self_slot, self)) {
    // Counted above when `self` was registered by name; arming twice is a
    // no-op thanks to the timer_armed flag.
    if (reg.names.find(self) == reg.names.end()) ++armed_timers;
  }
  if (armed_timers == 0) {
    DisarmTimersLocked(reg);
    g_armed.store(false, std::memory_order_release);
    g_active_hz.store(0, std::memory_order_relaxed);
    return InternalError("profiler: could not arm any per-thread CPU timer");
  }
  return Status::Ok();
#endif
}

StatusOr<Profile> StopProfiling() {
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  if (!g_armed.load(std::memory_order_acquire) ||
      g_armed_pid.load(std::memory_order_relaxed) !=
          static_cast<int>(::getpid())) {
    return FailedPreconditionError("profiler not armed in this process");
  }
  // Gate first (a handler mid-flight past the gate finishes writing into
  // its ring via atomics; its sample is simply discarded by the next
  // Start), then delete the timers.
  g_armed.store(false, std::memory_order_release);
  g_active_hz.store(0, std::memory_order_relaxed);
  DisarmTimersLocked(reg);

  Profile profile;
  profile.hz = reg.hz;
  profile.period_us = reg.hz > 0 ? 1e6 / reg.hz : 0.0;
  profile.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    reg.start)
          .count();

  SampleBatch local;
  for (ThreadSlot& slot : g_slots) {
    DrainSlotLocked(reg, slot, &local);
  }
  local.dropped += g_unattributed.load(std::memory_order_relaxed);
  g_unattributed.store(0, std::memory_order_relaxed);
  local.Normalize();
  profile.sections.push_back({"coordinator", std::move(local)});
  for (auto& [label, batch] : reg.remote) {
    batch.Normalize();
    profile.sections.push_back({label, std::move(batch)});
  }
  reg.remote.clear();
  std::sort(profile.sections.begin(), profile.sections.end(),
            [](const ProfileSection& a, const ProfileSection& b) {
              return a.label < b.label;
            });
  return profile;
}

bool ProfilingActive() { return ArmedInThisProcess(); }

int ActiveHz() {
  return ArmedInThisProcess() ? g_active_hz.load(std::memory_order_relaxed)
                              : 0;
}

StatusOr<Profile> CaptureProfile(double seconds, int hz) {
  Status started = StartProfiling(ProfileOptions{hz});
  if (!started.ok()) return started;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::clamp(seconds, 0.01, 600.0)));
  return StopProfiling();
}

void NoteThisThread(const std::string& name) {
  Registry& reg = GlobalRegistry();
  const int tid = ThisTid();
  MutexLock lock(reg.mu);
  reg.names[tid] = name;
  if (g_armed.load(std::memory_order_acquire) &&
      g_armed_pid.load(std::memory_order_relaxed) ==
          static_cast<int>(::getpid())) {
    // A capture is running: cover this thread from now on.
    ThreadSlot* slot = ClaimSlot(tid);
    if (slot != nullptr && !ArmTimerLocked(reg, slot, tid)) {
      SIMJ_LOG(WARN) << "profiler: cannot arm timer for thread '" << name
                     << "' (tid " << tid << ")";
    }
  }
}

SampleBatch DrainThisThreadBatch() {
  SampleBatch batch;
  if (!ArmedInThisProcess()) return batch;
  Registry& reg = GlobalRegistry();
  const int tid = ThisTid();
  MutexLock lock(reg.mu);
  for (ThreadSlot& slot : g_slots) {
    if (slot.tid.load(std::memory_order_acquire) == tid) {
      DrainSlotLocked(reg, slot, &batch);
      break;
    }
  }
  batch.Normalize();
  return batch;
}

SampleBatch DrainAllThreadsBatch() {
  SampleBatch batch;
  if (!ArmedInThisProcess()) return batch;
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  for (ThreadSlot& slot : g_slots) {
    DrainSlotLocked(reg, slot, &batch);
  }
  batch.Normalize();
  return batch;
}

void AccumulateRemoteSection(const std::string& label,
                             const SampleBatch& batch) {
  if (batch.empty()) return;
  Registry& reg = GlobalRegistry();
  MutexLock lock(reg.mu);
  reg.remote[label].MergeFrom(batch);
}

std::string ProfileJson(const Profile& profile) {
  // Deterministic: fixed key order, %.3f floats, sections/stacks sorted.
  std::vector<ProfileSection> sections = profile.sections;
  std::sort(sections.begin(), sections.end(),
            [](const ProfileSection& a, const ProfileSection& b) {
              return a.label < b.label;
            });
  std::string out = "{\"schema\":\"simj_profile_v1\",\"hz\":";
  out += std::to_string(profile.hz);
  out += ",\"period_us\":" + FormatFixed3(profile.period_us);
  out += ",\"duration_seconds\":" + FormatFixed3(profile.duration_seconds);
  out += ",\"samples\":" + std::to_string(profile.TotalSamples());
  out += ",\"dropped\":" + std::to_string(profile.TotalDropped());
  out += ",\"truncated\":" + std::to_string(profile.TotalTruncated());
  out += ",\"sections\":[";
  bool first_section = true;
  for (const ProfileSection& section : sections) {
    if (!first_section) out += ",";
    first_section = false;
    out += "{\"label\":";
    AppendJsonString(&out, section.label);
    out += ",\"samples\":" + std::to_string(section.batch.samples);
    out += ",\"dropped\":" + std::to_string(section.batch.dropped);
    out += ",\"truncated\":" + std::to_string(section.batch.truncated);
    out += ",\"stacks\":[";
    std::vector<FoldedStack> stacks = section.batch.stacks;
    std::sort(stacks.begin(), stacks.end(), StackLess);
    bool first_stack = true;
    for (const FoldedStack& stack : stacks) {
      if (!first_stack) out += ",";
      first_stack = false;
      out += "{\"thread\":";
      AppendJsonString(&out, stack.thread);
      out += ",\"count\":" + std::to_string(stack.count);
      out += ",\"frames\":[";
      bool first_frame = true;
      for (const std::string& frame : stack.frames) {
        if (!first_frame) out += ",";
        first_frame = false;
        AppendJsonString(&out, frame);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

std::string FoldedText(const Profile& profile) {
  std::vector<ProfileSection> sections = profile.sections;
  std::sort(sections.begin(), sections.end(),
            [](const ProfileSection& a, const ProfileSection& b) {
              return a.label < b.label;
            });
  std::string out;
  for (const ProfileSection& section : sections) {
    const std::string label = CleanFrameToken(section.label);
    std::vector<FoldedStack> stacks = section.batch.stacks;
    std::sort(stacks.begin(), stacks.end(), StackLess);
    for (const FoldedStack& stack : stacks) {
      out += label;
      out.push_back(';');
      out += CleanFrameToken(stack.thread);
      for (const std::string& frame : stack.frames) {
        out.push_back(';');
        out += CleanFrameToken(frame);
      }
      out.push_back(' ');
      out += std::to_string(stack.count);
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace simj::prof

#include "util/mem.h"

#include <cstdio>
#include <cstring>

#include "util/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define SIMJ_MEM_HAVE_POSIX 1
#endif

namespace simj::mem {

namespace {

// Reads the "Key:   1234 kB" lines of `keys` from /proc/self/status in one
// pass. values_kb[i] is -1 when the file (non-Linux) or keys[i] is
// unavailable.
template <size_t N>
void ReadProcStatusKb(const char* const (&keys)[N], int64_t (&values_kb)[N]) {
  for (int64_t& value : values_kb) value = -1;
  FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return;
  size_t found = 0;
  char line[256];
  while (found < N && std::fgets(line, sizeof(line), file) != nullptr) {
    for (size_t i = 0; i < N; ++i) {
      const size_t key_len = std::strlen(keys[i]);
      if (std::strncmp(line, keys[i], key_len) != 0 || line[key_len] != ':') {
        continue;
      }
      long long parsed = 0;
      if (std::sscanf(line + key_len + 1, "%lld", &parsed) == 1) {
        values_kb[i] = parsed;
      }
      ++found;
      break;
    }
  }
  std::fclose(file);
}

int64_t ReadProcStatusKb(const char* key) {
  int64_t value_kb[1] = {};
  ReadProcStatusKb({key}, value_kb);
  return value_kb[0];
}

int64_t KbToBytes(int64_t kb) { return kb < 0 ? 0 : kb * 1024; }

}  // namespace

int64_t CurrentRssBytes() { return KbToBytes(ReadProcStatusKb("VmRSS")); }

int64_t PeakRssBytes() {
  int64_t kb = ReadProcStatusKb("VmHWM");
  if (kb >= 0) return kb * 1024;
#ifdef SIMJ_MEM_HAVE_POSIX
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss;  // bytes on macOS
#else
    return usage.ru_maxrss * 1024;  // kilobytes elsewhere
#endif
  }
#endif
  return 0;
}

int64_t PageSizeBytes() {
#ifdef SIMJ_MEM_HAVE_POSIX
  long page = sysconf(_SC_PAGESIZE);
  return page > 0 ? page : 0;
#else
  return 0;
#endif
}

void SampleRssToMetrics() {
  metrics::Registry& registry = metrics::Registry::Global();
  static bool help_registered = [&registry] {
    registry.SetHelp("simj_mem_current_rss_bytes",
                     "Resident set size at the last sample.");
    registry.SetHelp("simj_mem_peak_rss_bytes",
                     "High-water resident set size (monotonic).");
    return true;
  }();
  (void)help_registered;
  // One pass over /proc/self/status for both figures; the peak falls back
  // to PeakRssBytes() where VmHWM is unavailable.
  int64_t kb[2] = {};
  ReadProcStatusKb({"VmRSS", "VmHWM"}, kb);
  const int64_t current = KbToBytes(kb[0]);
  if (current > 0) {
    registry.GetGauge("simj_mem_current_rss_bytes")
        .Set(static_cast<double>(current));
  }
  const int64_t peak = kb[1] >= 0 ? KbToBytes(kb[1]) : PeakRssBytes();
  if (peak > 0) {
    registry.GetGauge("simj_mem_peak_rss_bytes")
        .UpdateMax(static_cast<double>(peak));
  }
}

}  // namespace simj::mem

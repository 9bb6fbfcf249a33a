// Label interning shared by every graph in a join.
//
// Vertex and edge labels are interned strings. Labels whose name starts with
// '?' are *wildcards* (the paper's variable vertices): a wildcard substitutes
// against any label at zero cost, both in graph edit distance and in common
// label counting.

#ifndef SIMJ_GRAPH_LABEL_H_
#define SIMJ_GRAPH_LABEL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace simj::graph {

using LabelId = int32_t;
inline constexpr LabelId kInvalidLabel = -1;

// Bidirectional string <-> LabelId map. One dictionary must be shared by all
// graphs that participate in the same join. Interning is NOT thread-safe;
// the parallel join freezes the dictionary (ScopedFreeze) while its workers
// run so they can only read it (lookups on a frozen dictionary are safe
// from any thread), and unfreezes it when the join returns. Interning a
// label that is already present stays legal while frozen; inserting a new
// one trips a SIMJ_CHECK.
//
// Concurrency contract (DESIGN.md §11): this class is intentionally
// lock-free — it uses a freeze protocol instead of a simj::Mutex. The
// release-increment of the freeze count pairs with the acquire-load in
// frozen(): every intern happens-before the freeze, and the freeze
// happens-before any cross-thread lookup (the joining thread freezes
// before fanning out, and thread creation itself provides the needed
// synchronization for workers that never call frozen()). The unfreeze
// happens after the workers are joined. There is no guarded state for the
// thread-safety analysis to check here; the invariant is temporal
// (single-writer phase, then read-only phase), which the SIMJ_CHECK in
// Intern enforces dynamically.
class LabelDictionary {
 public:
  LabelDictionary() = default;
  LabelDictionary(const LabelDictionary&) = delete;
  LabelDictionary& operator=(const LabelDictionary&) = delete;
  LabelDictionary(LabelDictionary&& other) noexcept { *this = std::move(other); }
  LabelDictionary& operator=(LabelDictionary&& other) noexcept {
    if (this != &other) {
      index_ = std::move(other.index_);
      names_ = std::move(other.names_);
      is_wildcard_ = std::move(other.is_wildcard_);
      freezes_.store(other.freezes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    return *this;
  }

  // Returns the id for `name`, interning it on first use.
  LabelId Intern(std::string_view name);

  // Forbids interning new labels from here on, for good, making the
  // dictionary safe for concurrent reads. Idempotent; `const` because read
  // paths must be able to assert the read-only regime before fanning out.
  void Freeze() const { freezes_.fetch_add(1, std::memory_order_release); }
  bool frozen() const { return freezes_.load(std::memory_order_acquire) > 0; }

  // Freezes `dict` for the lifetime of this object, then restores the
  // prior state: a dictionary that was not frozen before accepts new
  // labels again. Freezes nest, so overlapping scopes (two joins over one
  // dictionary) and a permanent Freeze() compose.
  class ScopedFreeze {
   public:
    explicit ScopedFreeze(const LabelDictionary& dict) : dict_(dict) {
      dict_.freezes_.fetch_add(1, std::memory_order_release);
    }
    ~ScopedFreeze() { dict_.freezes_.fetch_sub(1, std::memory_order_release); }
    ScopedFreeze(const ScopedFreeze&) = delete;
    ScopedFreeze& operator=(const ScopedFreeze&) = delete;

   private:
    const LabelDictionary& dict_;
  };

  // Returns the id for `name` or kInvalidLabel if never interned.
  LabelId Find(std::string_view name) const;

  const std::string& Name(LabelId id) const {
    SIMJ_CHECK(id >= 0 && id < static_cast<LabelId>(names_.size()));
    return names_[id];
  }

  // True when the label is a variable/wildcard ("?x", "?person", ...).
  bool IsWildcard(LabelId id) const {
    SIMJ_CHECK(id >= 0 && id < static_cast<LabelId>(is_wildcard_.size()));
    return is_wildcard_[id] != 0;
  }

  // True when `a` can substitute for `b` at zero cost: equal ids or either
  // side is a wildcard.
  bool Matches(LabelId a, LabelId b) const {
    return a == b || IsWildcard(a) || IsWildcard(b);
  }

  int size() const { return static_cast<int>(names_.size()); }

 private:
  std::unordered_map<std::string, LabelId> index_;
  std::vector<std::string> names_;
  std::vector<uint8_t> is_wildcard_;  // bytes, not bits: read per label
  // Freeze() calls plus live ScopedFreeze objects; frozen while > 0.
  mutable std::atomic<int> freezes_{0};
};

// Multiset of labels, used by the competitor filters and as the reference
// form of the label matching below.
using LabelCounts = std::unordered_map<LabelId, int>;

// Size of a maximum matching between two label multisets where a pair
// matches iff the labels are equal or at least one side is a wildcard.
// This generalizes |multiset intersection| to wildcard labels and is what
// the paper's lambda_V / lambda_E quantities become in our setting.
[[nodiscard]] int MatchableLabelCount(const LabelCounts& a, const LabelCounts& b,
                        const LabelDictionary& dict);

// The last step of every form of MatchableLabelCount: `exact` equal
// non-wildcard pairs are matched, `rem_*` non-wildcard labels are left
// over on each side, and the `wild_*` wildcards soak them up. Matching a
// wildcard against a leftover non-wildcard first is optimal: a
// wildcard-wildcard pair spends two flexible items on one match.
[[nodiscard]] inline int CombineMatchable(int exact, int rem_a, int wild_a,
                                          int rem_b, int wild_b) {
  const int m1 = wild_a < rem_b ? wild_a : rem_b;
  const int m2 = wild_b < rem_a ? wild_b : rem_a;
  const int left_a = wild_a - m1;
  const int left_b = wild_b - m2;
  return exact + m1 + m2 + (left_a < left_b ? left_a : left_b);
}

// MatchableLabelCount over multisets given as sorted label arrays: one
// merge, no allocation.
[[nodiscard]] int MatchableSortedLabels(std::span<const LabelId> a,
                                        std::span<const LabelId> b,
                                        const LabelDictionary& dict);

// MatchableLabelCount over dense histograms: a[l] and b[l] count label l
// for l < wild.size(), and wild[l] != 0 marks the wildcards.
[[nodiscard]] inline int MatchableLabelHistograms(
    const int* a, const int* b, std::span<const uint8_t> wild) {
  int exact = 0, rem_a = 0, wild_a = 0, rem_b = 0, wild_b = 0;
  for (size_t l = 0; l < wild.size(); ++l) {
    if (wild[l]) {
      wild_a += a[l];
      wild_b += b[l];
      continue;
    }
    const int matched = a[l] < b[l] ? a[l] : b[l];
    exact += matched;
    rem_a += a[l] - matched;
    rem_b += b[l] - matched;
  }
  return CombineMatchable(exact, rem_a, wild_a, rem_b, wild_b);
}

}  // namespace simj::graph

#endif  // SIMJ_GRAPH_LABEL_H_

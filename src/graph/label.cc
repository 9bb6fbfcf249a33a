#include "graph/label.h"

#include <algorithm>

namespace simj::graph {

LabelId LabelDictionary::Intern(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  // Inserting while frozen would race with concurrent join workers.
  SIMJ_CHECK(!frozen());
  LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  is_wildcard_.push_back(!name.empty() && name.front() == '?' ? 1 : 0);
  index_.emplace(names_.back(), id);
  return id;
}

LabelId LabelDictionary::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidLabel : it->second;
}

int MatchableLabelCount(const LabelCounts& a, const LabelCounts& b,
                        const LabelDictionary& dict) {
  int exact = 0;
  int rem_a = 0;
  int wild_a = 0;
  for (const auto& [label, count] : a) {
    if (dict.IsWildcard(label)) {
      wild_a += count;
      continue;
    }
    auto it = b.find(label);
    int matched = it == b.end() ? 0 : std::min(count, it->second);
    exact += matched;
    rem_a += count - matched;
  }
  int rem_b = 0;
  int wild_b = 0;
  for (const auto& [label, count] : b) {
    if (dict.IsWildcard(label)) {
      wild_b += count;
      continue;
    }
    auto it = a.find(label);
    int matched = it == a.end() ? 0 : std::min(count, it->second);
    rem_b += count - matched;
  }
  return CombineMatchable(exact, rem_a, wild_a, rem_b, wild_b);
}

int MatchableSortedLabels(std::span<const LabelId> a,
                          std::span<const LabelId> b,
                          const LabelDictionary& dict) {
  int exact = 0, rem_a = 0, wild_a = 0, rem_b = 0, wild_b = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      ++(dict.IsWildcard(a[i]) ? wild_a : rem_a);
      ++i;
    } else if (i == a.size() || b[j] < a[i]) {
      ++(dict.IsWildcard(b[j]) ? wild_b : rem_b);
      ++j;
    } else {
      if (dict.IsWildcard(a[i])) {
        ++wild_a;
        ++wild_b;
      } else {
        ++exact;
      }
      ++i;
      ++j;
    }
  }
  return CombineMatchable(exact, rem_a, wild_a, rem_b, wild_b);
}

}  // namespace simj::graph

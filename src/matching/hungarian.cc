#include "matching/hungarian.h"

#include <limits>

#include "util/check.h"
#include "util/small_buffer.h"

namespace simj::matching {

double MinCostAssignment(std::span<const double> cost, int n, int m,
                         std::span<int> assignment) {
  if (n == 0) return 0.0;
  SIMJ_CHECK_LE(n, m);
  SIMJ_CHECK_EQ(cost.size(), static_cast<size_t>(n) * m);
  SIMJ_CHECK(assignment.empty() || assignment.size() == static_cast<size_t>(n));

  // Classic O(n^2 m) potentials formulation (1-indexed internals).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SmallBuffer<double, 64> u(n + 1, 0.0);
  SmallBuffer<double, 64> v(m + 1, 0.0);
  SmallBuffer<double, 64> minv(m + 1, kInf);
  SmallBuffer<int, 64> p(m + 1, 0);    // p[j] = row matched to column j
  SmallBuffer<int, 64> way(m + 1, 0);
  SmallBuffer<bool, 64> used(m + 1, false);

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), false);
    do {
      used[j0] = true;
      int i0 = p[j0];
      const double* row = cost.data() + static_cast<size_t>(i0 - 1) * m;
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = row[j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  if (!assignment.empty()) {
    std::fill(assignment.begin(), assignment.end(), -1);
    for (int j = 1; j <= m; ++j) {
      if (p[j] > 0) assignment[p[j] - 1] = j - 1;
    }
  }
  double total = 0.0;
  for (int j = 1; j <= m; ++j) {
    if (p[j] > 0) total += cost[static_cast<size_t>(p[j] - 1) * m + (j - 1)];
  }
  return total;
}

double MinCostAssignment(const std::vector<std::vector<double>>& cost,
                         std::vector<int>* assignment) {
  const int n = static_cast<int>(cost.size());
  if (n == 0) {
    if (assignment != nullptr) assignment->clear();
    return 0.0;
  }
  const int m = static_cast<int>(cost[0].size());
  std::vector<double> flat;
  flat.reserve(static_cast<size_t>(n) * m);
  for (const auto& row : cost) {
    SIMJ_CHECK_EQ(static_cast<int>(row.size()), m);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  std::vector<int> local;
  std::vector<int>& out = assignment != nullptr ? *assignment : local;
  out.assign(n, -1);
  return MinCostAssignment(flat, n, m, out);
}

}  // namespace simj::matching

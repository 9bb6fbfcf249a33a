// Minimum-cost assignment (Hungarian algorithm / Kuhn-Munkres).
//
// Used by the greedy GED upper bound and by the star-based competitor
// filter: both need the cheapest one-to-one assignment between two sets of
// items under an arbitrary cost matrix.

#ifndef SIMJ_MATCHING_HUNGARIAN_H_
#define SIMJ_MATCHING_HUNGARIAN_H_

#include <span>
#include <vector>

namespace simj::matching {

// Solves min-cost assignment on an n x m cost matrix stored row-major in
// `cost` (rows assigned to distinct columns). Requires n <= m; pad the
// matrix with dummy columns beforehand if needed. Returns the optimal total
// cost and, if `assignment` is non-empty (size n), fills
// assignment[row] = column. Scratch lives on the stack for small matrices.
//
// Costs may be any finite doubles (negative allowed). O(n^2 m).
double MinCostAssignment(std::span<const double> cost, int n, int m,
                         std::span<int> assignment);

// The same over a matrix given as rows.
double MinCostAssignment(const std::vector<std::vector<double>>& cost,
                         std::vector<int>* assignment = nullptr);

}  // namespace simj::matching

#endif  // SIMJ_MATCHING_HUNGARIAN_H_

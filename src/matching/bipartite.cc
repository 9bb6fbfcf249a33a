#include "matching/bipartite.h"

#include <algorithm>

#include "util/check.h"

namespace simj::matching {

namespace {

size_t CheckedArea(int num_left, int num_right) {
  SIMJ_CHECK_GE(num_left, 0);
  SIMJ_CHECK_GE(num_right, 0);
  return static_cast<size_t>(num_left) * static_cast<size_t>(num_right);
}

}  // namespace

BipartiteGraph::BipartiteGraph(int num_left, int num_right)
    : num_left_(num_left),
      num_right_(num_right),
      adjacent_(CheckedArea(num_left, num_right), 0) {}

void BipartiteGraph::AddEdge(int left, int right) {
  SIMJ_CHECK(left >= 0 && left < num_left_);
  SIMJ_CHECK(right >= 0 && right < num_right_);
  adjacent_[static_cast<size_t>(left) * num_right_ + right] = 1;
}

// Kuhn's augmenting path from `left` over right vertices not yet visited
// in this round.
bool BipartiteGraph::Augment(int left, int* match_of_right,
                             uint8_t* visited) const {
  const uint8_t* row = adjacent_.data() + static_cast<size_t>(left) * num_right_;
  for (int r = 0; r < num_right_; ++r) {
    if (!row[r] || visited[r]) continue;
    visited[r] = 1;
    if (match_of_right[r] < 0 ||
        Augment(match_of_right[r], match_of_right, visited)) {
      match_of_right[r] = left;
      return true;
    }
  }
  return false;
}

int BipartiteGraph::Match(int* match_of_right) const {
  SmallBuffer<uint8_t, 64> visited(num_right_, 0);
  int matching = 0;
  for (int l = 0; l < num_left_; ++l) {
    std::fill(visited.begin(), visited.end(), 0);
    if (Augment(l, match_of_right, visited.data())) ++matching;
  }
  return matching;
}

int BipartiteGraph::MaxMatching() const {
  SmallBuffer<int, 64> match_of_right(num_right_, -1);
  return Match(match_of_right.data());
}

int BipartiteGraph::MaxMatching(std::vector<int>* match_of_left) const {
  SmallBuffer<int, 64> match_of_right(num_right_, -1);
  const int matching = Match(match_of_right.data());
  match_of_left->assign(num_left_, -1);
  for (int r = 0; r < num_right_; ++r) {
    if (match_of_right[r] >= 0) (*match_of_left)[match_of_right[r]] = r;
  }
  return matching;
}

}  // namespace simj::matching

// Maximum-cardinality bipartite matching.
//
// Used to evaluate lambda_V(q, g) for uncertain graphs: the size of a
// maximum matching in the vertex-label bipartite graph (paper Def. 10),
// which upper-bounds the number of common vertex labels across all possible
// worlds.

#ifndef SIMJ_MATCHING_BIPARTITE_H_
#define SIMJ_MATCHING_BIPARTITE_H_

#include <cstdint>
#include <vector>

#include "util/small_buffer.h"

namespace simj::matching {

// Bipartite graph with `num_left` and `num_right` vertices; edges are added
// explicitly. The adjacency is a flat num_left x num_right matrix that
// lives inside the object for the small graphs of a join, so building and
// matching one allocates nothing.
class BipartiteGraph {
 public:
  BipartiteGraph(int num_left, int num_right);

  void AddEdge(int left, int right);

  int num_left() const { return num_left_; }
  int num_right() const { return num_right_; }

  // Size of a maximum-cardinality matching (augmenting paths, O(V E)).
  int MaxMatching() const;

  // As MaxMatching(), and fills match_of_left[l] with the matched right
  // vertex of l or -1.
  int MaxMatching(std::vector<int>* match_of_left) const;

 private:
  // Fills match_of_right (size num_right, all -1 on entry) with a maximum
  // matching and returns its size.
  int Match(int* match_of_right) const;
  bool Augment(int left, int* match_of_right, uint8_t* visited) const;

  int num_left_;
  int num_right_;
  SmallBuffer<uint8_t, 256> adjacent_;  // [left * num_right + right]
};

}  // namespace simj::matching

#endif  // SIMJ_MATCHING_BIPARTITE_H_

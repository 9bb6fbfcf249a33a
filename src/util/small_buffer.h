// Fixed-size scratch array for per-call kernel buffers.
//
// Up to N elements live inside the object (on the caller's stack); a larger
// size takes one heap block. Both cases run the same code through data(),
// so a kernel written against SmallBuffer stays valid at every input size
// while the usual small graphs allocate nothing. Nothing is shared between
// instances and nothing outlives the owning scope.

#ifndef SIMJ_UTIL_SMALL_BUFFER_H_
#define SIMJ_UTIL_SMALL_BUFFER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <span>

namespace simj {

template <typename T, size_t N>
class SmallBuffer {
 public:
  // `size` elements, each set to `fill`.
  explicit SmallBuffer(size_t size, const T& fill = T()) : size_(size) {
    if (size > N) heap_ = std::make_unique<T[]>(size);
    std::fill_n(data(), size, fill);
  }
  SmallBuffer(const SmallBuffer&) = delete;
  SmallBuffer& operator=(const SmallBuffer&) = delete;

  T* data() { return heap_ ? heap_.get() : inline_.data(); }
  const T* data() const { return heap_ ? heap_.get() : inline_.data(); }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  std::span<T> span() { return {data(), size_}; }
  std::span<const T> span() const { return {data(), size_}; }

 private:
  size_t size_;
  std::unique_ptr<T[]> heap_;
  std::array<T, N> inline_;
};

}  // namespace simj

#endif  // SIMJ_UTIL_SMALL_BUFFER_H_

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace elephant::sim {

/// Grow-only chunked object arena with stable indices and addresses.
///
/// A high-flow-count cell allocates three to five heap objects per flow when
/// every sender, receiver, and congestion controller is a `unique_ptr`:
/// 100k flows scatter ~500k allocations across the heap and every per-ACK
/// walk chases cold pointers. A Slab packs objects of one type into
/// fixed-size chunks (~64 KiB each) so consecutive indices are consecutive
/// in memory, while never moving a constructed object — chunks are added,
/// not reallocated, so raw pointers and indices stay valid for the slab's
/// lifetime.
///
/// erase() destroys an object and pushes its slot onto a free list;
/// emplace() pops the free list in O(1) before growing. Iteration visits
/// live slots in index order, which is what makes slab-ordered flow walks
/// deterministic.
template <typename T>
class Slab {
 public:
  /// Objects per chunk: a power of two sized so one chunk is ~64 KiB (at
  /// least 8 objects, so huge types still amortize the chunk pointer).
  static constexpr std::size_t kChunkObjects = [] {
    std::size_t n = 8;
    while (n * sizeof(T) < 65536 && n < 65536) n *= 2;
    return n;
  }();

  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() { clear(); }

  /// Live objects.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots ever handed out (live + free-listed); indices are < high_water().
  [[nodiscard]] std::size_t high_water() const { return end_; }
  /// Constructed-storage capacity (grows by whole chunks).
  [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkObjects; }
  /// Heap bytes held by the chunk storage (the RSS the slab pins).
  [[nodiscard]] std::size_t bytes() const {
    return chunks_.size() * kChunkObjects * sizeof(T) + live_.capacity() * sizeof(std::uint64_t);
  }

  [[nodiscard]] bool is_live(std::uint32_t i) const {
    return i < end_ && (live_[i >> 6] >> (i & 63)) & 1;
  }

  [[nodiscard]] T& operator[](std::uint32_t i) {
    assert(is_live(i));
    return *ptr(i);
  }
  [[nodiscard]] const T& operator[](std::uint32_t i) const {
    assert(is_live(i));
    return *ptr(i);
  }

  /// Construct in place, reusing a freed slot when one exists. Returns the
  /// stable index and address of the new object.
  template <typename... Args>
  std::pair<std::uint32_t, T*> emplace(Args&&... args) {
    std::uint32_t i;
    if (!free_.empty()) {
      i = free_.back();
      free_.pop_back();
    } else {
      if (end_ == capacity()) {
        chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
        live_.resize((capacity() + 63) / 64, 0);
      }
      i = end_++;
    }
    T* p = ptr(i);
    try {
      new (p) T(std::forward<Args>(args)...);
    } catch (...) {
      free_.push_back(i);
      throw;
    }
    live_[i >> 6] |= std::uint64_t{1} << (i & 63);
    ++size_;
    return {i, p};
  }

  /// Destroy the object at `i` and recycle its slot (O(1)).
  void erase(std::uint32_t i) {
    assert(is_live(i));
    ptr(i)->~T();
    live_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    --size_;
    free_.push_back(i);
  }

  /// Destroy every live object. Chunk storage is retained for reuse.
  void clear() {
    for (std::uint32_t i = 0; i < end_; ++i) {
      if (is_live(i)) {
        ptr(i)->~T();
        live_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
      }
    }
    size_ = 0;
    end_ = 0;
    free_.clear();
  }

  /// Visit live objects in index order: f(index, T&).
  template <typename F>
  void for_each(F&& f) {
    for (std::uint32_t i = 0; i < end_; ++i) {
      if (is_live(i)) f(i, *ptr(i));
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < end_; ++i) {
      if (is_live(i)) f(i, *ptr(i));
    }
  }

 private:
  struct Chunk {
    alignas(T) unsigned char raw[kChunkObjects * sizeof(T)];
  };

  [[nodiscard]] T* ptr(std::uint32_t i) {
    return std::launder(reinterpret_cast<T*>(chunks_[i / kChunkObjects]->raw) +
                        i % kChunkObjects);
  }
  [[nodiscard]] const T* ptr(std::uint32_t i) const {
    return std::launder(reinterpret_cast<const T*>(chunks_[i / kChunkObjects]->raw) +
                        i % kChunkObjects);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint64_t> live_;  ///< occupancy bitmap, one bit per slot
  std::vector<std::uint32_t> free_;  ///< recycled slots, LIFO
  std::uint32_t end_ = 0;            ///< high-water slot index
  std::size_t size_ = 0;
};

}  // namespace elephant::sim

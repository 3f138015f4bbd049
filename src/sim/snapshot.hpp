#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace elephant::sim {

/// Byte-buffer serializer for simulation snapshots. Components append their
/// mutable state in a fixed, documented order; SnapshotReader consumes it in
/// the same order. The format is process-private (host byte order, no
/// framing): a snapshot is restored by the very build that produced it,
/// within one process — it is a model-checking rewind mechanism, not an
/// interchange format.
class SnapshotWriter {
 public:
  /// Append a trivially-copyable value verbatim.
  template <typename T>
  void put_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "put_pod requires a trivially copyable type");
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_u8(std::uint8_t v) { put_pod(v); }
  void put_u32(std::uint32_t v) { put_pod(v); }
  void put_u64(std::uint64_t v) { put_pod(v); }
  void put_i64(std::int64_t v) { put_pod(v); }
  void put_f64(double v) { put_pod(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Append a counted run of trivially-copyable elements.
  template <typename T>
  void put_pod_span(const T* data, std::size_t n) {
    put_u64(static_cast<std::uint64_t>(n));
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n * sizeof(T));
  }

  template <typename T>
  void put_pod_vector(const std::vector<T>& v) {
    put_pod_span(v.data(), v.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Mirror of SnapshotWriter: consumes the byte buffer in write order. Reads
/// past the end assert in debug builds and zero-fill in release — a snapshot
/// is only ever paired with the code that wrote it, so a mismatch is a bug,
/// not an input error.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::vector<std::uint8_t>& buf)
      : p_(buf.data()), end_(buf.data() + buf.size()) {}

  template <typename T>
  void get_pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "get_pod requires a trivially copyable type");
    assert(p_ + sizeof(T) <= end_ && "snapshot underrun");
    if (p_ + sizeof(T) > end_) {
      // void* cast: T is trivially copyable (asserted above) but may have a
      // user-provided constructor, which -Wclass-memaccess flags on its own.
      std::memset(static_cast<void*>(out), 0, sizeof(T));
      p_ = end_;
      return;
    }
    std::memcpy(out, p_, sizeof(T));
    p_ += sizeof(T);
  }

  template <typename T>
  [[nodiscard]] T get() {
    T v;
    get_pod(&v);
    return v;
  }

  [[nodiscard]] std::uint8_t get_u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t get_u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t get_i64() { return get<std::int64_t>(); }
  [[nodiscard]] double get_f64() { return get<double>(); }
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }

  template <typename T>
  void get_pod_vector(std::vector<T>* out) {
    const std::uint64_t n = get_u64();
    out->resize(static_cast<std::size_t>(n));
    for (auto& e : *out) get_pod(&e);
  }

  /// Read a counted run written by put_pod_span() into `n` preallocated
  /// elements; the stored count must be `n`.
  template <typename T>
  void get_pod_span(T* out, std::size_t n) {
    [[maybe_unused]] const std::uint64_t stored = get_u64();
    assert(stored == n && "snapshot span length mismatch");
    for (std::size_t i = 0; i < n; ++i) get_pod(&out[i]);
  }

  [[nodiscard]] bool exhausted() const { return p_ == end_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// A component whose full mutable state can be captured into and restored
/// from a snapshot byte stream. Implementations must write and read exactly
/// the same fields in the same order, and restoring must leave the component
/// bit-identical to the moment save() ran — the round-trip tests pin this by
/// comparing golden digests of interrupted vs uninterrupted runs.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void save(SnapshotWriter& w) const = 0;
  virtual void load(SnapshotReader& r) = 0;
};

/// One captured simulation state: the scheduler's deep image plus every
/// Snapshottable component's bytes in a fixed registration order (the cell
/// defines and documents that order), plus a state hash for exploration
/// dedup. Move-only (the image owns cloned callbacks); restorable any
/// number of times into the same in-place component graph that produced it.
struct Snapshot {
  Scheduler::Image scheduler;
  std::vector<std::uint8_t> components;
  std::uint64_t state_hash = 0;
};

/// FNV-1a fold helpers for state hashing (dedup of explored states).
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] inline std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a_bytes(std::uint64_t h, const std::uint8_t* p,
                                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace elephant::sim

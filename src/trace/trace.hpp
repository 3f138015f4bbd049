#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace elephant::trace {

/// What happened. Each type documents how the generic value slots v0–v2 are
/// used; `flow`/`seq` are zero where they do not apply.
enum class RecordType : std::uint8_t {
  kCwndUpdate = 0,  ///< flow; v0 = cwnd segments, v1 = pacing bps, v2 = srtt ms
  kPacketSent,      ///< flow, seq = unit; v0 = wire bytes, v1 = pipe units after send
  kPacketRetx,      ///< flow, seq = unit; v0 = wire bytes, v1 = pipe units, v2 = retx count
  kSackMark,        ///< flow, seq = unit newly SACKed; v0 = segments per unit
  kLossMark,        ///< flow, seq = unit marked lost (FACK/RACK); v0 = segments per unit
  kRtoFire,         ///< flow, seq = una; v0 = backoff factor, v1 = rto ms, v2 = lost units
  kAqmEnqueue,      ///< flow, seq; v0 = backlog bytes after, v1 = backlog packets
  kAqmDrop,         ///< flow, seq; v0 = backlog bytes, v1 = backlog packets, v2 = 1 early / 0 overflow
  kAqmMark,         ///< flow, seq; v0 = backlog bytes, v1 = backlog packets (ECN CE)
  kQueueDepth,      ///< periodic port sample; v0 = backlog bytes, v1 = packets, v2 = cumulative tx bytes
  kFault,           ///< fault-injection event; v0 = FaultKind, v1 = magnitude, v2 = 1 apply / 0 revert
  kFlowStart,       ///< workload flow instantiated; v0 = traffic-class index, v1 = transfer bytes (0 = elephant), v2 = dumbbell side
  kFlowEnd,         ///< finite flow completed; v0 = traffic-class index, v1 = transfer bytes, v2 = FCT seconds
};

inline constexpr std::size_t kRecordTypeCount = 13;

[[nodiscard]] const char* to_string(RecordType type);
/// Parse a name produced by to_string(); returns false on unknown names.
[[nodiscard]] bool record_type_from_string(std::string_view name, RecordType* out);

/// One flight-recorder event. Fixed-size and trivially copyable so the ring
/// buffer is a flat array and recording is a bounded store, never an
/// allocation.
struct TraceRecord {
  sim::Time t{};
  RecordType type = RecordType::kCwndUpdate;
  std::uint32_t flow = 0;
  std::uint64_t seq = 0;
  double v0 = 0;
  double v1 = 0;
  double v2 = 0;

  bool operator==(const TraceRecord&) const = default;
};

/// Where drained records go. Implementations must tolerate empty batches.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(std::span<const TraceRecord> batch) = 0;
  /// Called by Tracer::flush() after the ring is drained (e.g. fflush).
  virtual void flush() {}
};

/// The flight recorder: a fixed-capacity ring of typed records with a
/// per-type enable mask. A full ring drains to the sink, so no record is lost.
///
/// Instrumented components hold a `Tracer*` that is null by default, so the
/// hot path cost when tracing is off is a single predictable branch. When
/// tracing is on, record() is a mask test plus one 48-byte store; sink I/O
/// happens only on ring boundaries.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit Tracer(TraceSink& sink, std::size_t capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(const TraceRecord& r) {
    if (!(mask_ & (1u << static_cast<unsigned>(r.type)))) return;
    ring_[head_] = r;
    ++recorded_;
    if (++head_ == ring_.size()) drain();
  }

  [[nodiscard]] bool enabled(RecordType type) const {
    return (mask_ & (1u << static_cast<unsigned>(type))) != 0;
  }
  void enable_only(std::initializer_list<RecordType> types);

  /// Drain buffered records to the sink and flush the sink. Idempotent;
  /// called by the destructor.
  void flush();

  /// Records accepted by the mask since construction.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

 private:
  void drain();

  TraceSink& sink_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;
  std::uint32_t mask_ = (1u << kRecordTypeCount) - 1;
  std::uint64_t recorded_ = 0;
};

}  // namespace elephant::trace

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace elephant::aqm {

/// Counters every queue discipline maintains; read by tests and benches.
struct QueueStats {
  std::uint64_t enqueued = 0;         ///< packets accepted into the queue
  std::uint64_t dequeued = 0;         ///< packets handed to the link
  std::uint64_t dropped_overflow = 0; ///< tail/overflow drops (queue full)
  std::uint64_t dropped_early = 0;    ///< proactive AQM drops (RED/CoDel)
  std::uint64_t ecn_marked = 0;       ///< packets CE-marked instead of dropped
  std::uint64_t bytes_enqueued = 0;
  std::uint64_t bytes_dropped = 0;

  [[nodiscard]] std::uint64_t total_dropped() const {
    return dropped_overflow + dropped_early;
  }
};

/// Abstract queue discipline: the contract between a router egress port and
/// an AQM algorithm. Mirrors the Linux qdisc enqueue/dequeue split.
///
/// enqueue() may drop (returns false) or CE-mark the packet; dequeue() may
/// also drop internally (CoDel drops at dequeue time) and returns the next
/// packet to serialize, or nullopt when no packet is available.
class QueueDisc {
 public:
  explicit QueueDisc(sim::Scheduler& sched) : sched_(&sched) {}
  virtual ~QueueDisc() = default;

  QueueDisc(const QueueDisc&) = delete;
  QueueDisc& operator=(const QueueDisc&) = delete;

  virtual bool enqueue(net::Packet&& p) = 0;
  virtual std::optional<net::Packet> dequeue() = 0;

  [[nodiscard]] virtual std::size_t byte_length() const = 0;
  [[nodiscard]] virtual std::size_t packet_length() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  /// Attach a flight recorder (null detaches).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }

  /// Trace emitters for implementations; each is a no-op (one predictable
  /// branch) when no tracer is attached. Public so the shared codel_dequeue
  /// algorithm and the port's arrival-loss stage can report drops against
  /// this queue's backlog.
  void trace_enqueue(const net::Packet& p) {
    if (tracer_ != nullptr) [[unlikely]] emit(trace::RecordType::kAqmEnqueue, p, 0);
  }
  void trace_drop(const net::Packet& p, bool early) {
    if (tracer_ != nullptr) [[unlikely]] emit(trace::RecordType::kAqmDrop, p, early ? 1 : 0);
  }
  void trace_mark(const net::Packet& p) {
    if (tracer_ != nullptr) [[unlikely]] emit(trace::RecordType::kAqmMark, p, 0);
  }

 protected:
  [[nodiscard]] sim::Time now() const { return sched_->now(); }

  sim::Scheduler* sched_;
  QueueStats stats_;
  trace::Tracer* tracer_ = nullptr;

 private:
  /// Out of line on purpose: keeps the tracing-off fast path of every
  /// enqueue/dequeue at a single null-check with no inlined record build.
  void emit(trace::RecordType type, const net::Packet& p, double v2);
};

}  // namespace elephant::aqm

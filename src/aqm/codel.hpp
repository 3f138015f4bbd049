#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

#include "aqm/queue_disc.hpp"
#include "sim/ring_deque.hpp"
#include "sim/time.hpp"

namespace elephant::aqm {

/// CoDel knobs (RFC 8289): 5 ms target sojourn, 100 ms initial interval.
struct CodelParams {
  sim::Time target = sim::Time::milliseconds(5);
  sim::Time interval = sim::Time::milliseconds(100);
  bool ecn = false;           ///< CE-mark ECT packets instead of dropping
  std::uint32_t mtu = 9066;   ///< below one MTU of backlog never drop
};

/// Per-queue CoDel controller state (RFC 8289 §5.3).
struct CodelState {
  sim::Time first_above_time = sim::Time::zero();  ///< zero = not above target
  sim::Time drop_next = sim::Time::zero();
  std::uint32_t count = 0;
  std::uint32_t lastcount = 0;
  bool dropping = false;

  /// Next drop instant: t + interval / sqrt(count).
  [[nodiscard]] sim::Time control_law(sim::Time t, sim::Time interval) const {
    const std::uint32_t n = count == 0 ? 1 : count;
    return t + sim::Time::nanoseconds(static_cast<std::int64_t>(
                   static_cast<double>(interval.ns()) / std::sqrt(static_cast<double>(n))));
  }
};

/// The CoDel dequeue algorithm, shared by the standalone CoDel qdisc and
/// FQ-CoDel's per-flow queues.
///
/// `Q` must provide: empty(), pop_front_packet() -> Packet, byte_length().
/// Drops are counted into `stats`. The kTraced instantiation additionally
/// reports dequeue-time drops and CE marks through `host`'s trace hooks;
/// hosts select it only while a flight recorder is attached, so the default
/// instantiation stays free of tracing code entirely.
template <bool kTraced = false, typename Q>
std::optional<net::Packet> codel_dequeue(Q& q, CodelState& st, const CodelParams& params,
                                         sim::Time now, QueueStats& stats,
                                         QueueDisc* host = nullptr) {
  auto next_packet = [&]() -> std::optional<net::Packet> {
    if (q.empty()) return std::nullopt;
    return q.pop_front_packet();
  };
  // Whether this packet's sojourn keeps us in the "above target" regime.
  auto ok_to_drop = [&](const net::Packet& p) -> bool {
    const sim::Time sojourn = now - p.enqueue_time;
    if (sojourn < params.target || q.byte_length() <= params.mtu) {
      st.first_above_time = sim::Time::zero();
      return false;
    }
    if (st.first_above_time == sim::Time::zero()) {
      st.first_above_time = now + params.interval;
      return false;
    }
    return now >= st.first_above_time;
  };
  auto signal = [&](net::Packet& p) -> bool {  // true = packet survives (marked)
    if (params.ecn && p.ecn_capable) {
      p.ecn_marked = true;
      ++stats.ecn_marked;
      if constexpr (kTraced) host->trace_mark(p);
      return true;
    }
    ++stats.dropped_early;
    stats.bytes_dropped += p.size;
    if constexpr (kTraced) host->trace_drop(p, /*early=*/true);
    return false;
  };

  std::optional<net::Packet> p = next_packet();
  if (!p) {
    st.dropping = false;
    return std::nullopt;
  }
  bool drop = ok_to_drop(*p);

  if (st.dropping) {
    if (!drop) {
      st.dropping = false;
    } else {
      while (st.dropping && now >= st.drop_next) {
        if (signal(*p)) {  // ECN mark: deliver the marked packet
          ++st.count;
          st.drop_next = st.control_law(st.drop_next, params.interval);
          ++stats.dequeued;
          return p;
        }
        ++st.count;
        p = next_packet();
        if (!p || !ok_to_drop(*p)) {
          st.dropping = false;
          break;
        }
        st.drop_next = st.control_law(st.drop_next, params.interval);
      }
    }
  } else if (drop) {
    if (!signal(*p)) p = next_packet();
    st.dropping = true;
    // Restart close to the previous drop rate if we were recently dropping.
    const std::uint32_t delta = st.count - st.lastcount;
    st.count = (delta > 1 && now - st.drop_next < 16 * params.interval) ? delta : 1;
    st.lastcount = st.count;
    st.drop_next = st.control_law(now, params.interval);
  }
  if (p) ++stats.dequeued;
  return p;
}

/// Standalone CoDel qdisc over a single byte-limited FIFO.
class CodelQueue : public QueueDisc {
 public:
  CodelQueue(sim::Scheduler& sched, std::size_t limit_bytes, CodelParams params = {});

  bool enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue() override;

  [[nodiscard]] std::size_t byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_length() const override { return queue_.size(); }
  [[nodiscard]] std::string name() const override { return "codel"; }
  [[nodiscard]] const CodelState& state() const { return state_; }

 private:
  struct Access {
    CodelQueue& q;
    [[nodiscard]] bool empty() const { return q.queue_.empty(); }
    [[nodiscard]] std::size_t byte_length() const { return q.bytes_; }
    net::Packet pop_front_packet();
  };

  std::size_t limit_bytes_;
  std::size_t bytes_ = 0;
  sim::RingDeque<net::Packet> queue_;
  CodelParams params_;
  CodelState state_;
};

}  // namespace elephant::aqm

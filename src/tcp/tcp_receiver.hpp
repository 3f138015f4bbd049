#pragma once

#include <cstdint>
#include <map>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"

namespace elephant::tcp {

/// Bulk-sink TCP receiver: consumes data units, generates cumulative +
/// SACK acknowledgements with classic delayed-ACK behaviour (ack every
/// second in-order unit, immediately on reordering or CE marks).
///
/// Sequence numbers are in transmission units (aggregated segments); the
/// sender and receiver of one flow always agree on the unit size.
class TcpReceiver : public net::PacketHandler {
 public:
  TcpReceiver(sim::Scheduler& sched, net::Host& local, net::NodeId peer, net::FlowId flow)
      : sched_(sched), local_(local), peer_(peer), flow_(flow) {
    ack_timer_.init(sched_, [this] {
      ack_timer_armed_ = false;
      if (unacked_count_ > 0) send_ack();
    });
  }

  void on_packet(net::Packet&& p) override;

  /// Delayed-ACK timeout (Linux: ~40 ms). An ACK is generated at the latest
  /// this long after an unacknowledged in-order arrival, so a sender whose
  /// window is a single unit is never left waiting for a second packet.
  static constexpr sim::Time kDelayedAckTimeout = sim::Time::milliseconds(40);

  /// In-order units delivered to the application.
  [[nodiscard]] std::uint64_t delivered_units() const { return rcv_next_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] std::uint64_t received_packets() const { return received_packets_; }
  [[nodiscard]] std::uint64_t out_of_order_packets() const { return ooo_packets_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t duplicate_units() const { return duplicate_units_; }

  /// Serialize the reassembly and delayed-ACK state for the cell's state
  /// hash. The ACK timer's armed-ness is covered by the scheduler's hash;
  /// only the mirror flag is stored here.
  void save(sim::SnapshotWriter& w) const {
    w.put_u64(rcv_next_);
    w.put_u64(ooo_.size());
    for (const auto& [start, end] : ooo_) {
      w.put_u64(start);
      w.put_u64(end);
    }
    w.put_u64(last_recv_unit_);
    w.put_u32(unacked_count_);
    w.put_bool(pending_ce_);
    w.put_bool(ack_timer_armed_);
    w.put_bool(peer_ecn_);
    w.put_u64(delivered_bytes_);
    w.put_u64(received_packets_);
    w.put_u64(ooo_packets_);
    w.put_u64(acks_sent_);
    w.put_u64(duplicate_units_);
  }

 private:
  void send_ack();
  void arm_delayed_ack();

  sim::Scheduler& sched_;
  net::Host& local_;
  net::NodeId peer_;
  net::FlowId flow_;

  /// Insert one unit into the out-of-order interval map (merging neighbours);
  /// returns false if it was already present.
  bool ooo_insert(std::uint64_t unit);

  std::uint64_t rcv_next_ = 0;  ///< next expected unit
  /// Received-but-not-yet-contiguous ranges above rcv_next_, as disjoint,
  /// non-adjacent half-open intervals start → end. Interval storage keeps
  /// SACK-block construction O(log n) even when loss episodes leave tens of
  /// thousands of units buffered.
  std::map<std::uint64_t, std::uint64_t> ooo_;
  std::uint64_t last_recv_unit_ = 0;  ///< most recently arrived unit (for SACK block 1)
  std::uint32_t unacked_count_ = 0;   ///< delayed-ACK counter
  bool pending_ce_ = false;           ///< CE seen since last ACK
  bool ack_timer_armed_ = false;
  sim::TimerHandle ack_timer_;
  bool peer_ecn_ = false;             ///< peer sends ECT packets

  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t received_packets_ = 0;
  std::uint64_t ooo_packets_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t duplicate_units_ = 0;
};

}  // namespace elephant::tcp

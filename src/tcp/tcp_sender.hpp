#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "cca/congestion_control.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/scoreboard.hpp"
#include "trace/trace.hpp"

namespace elephant::obs {
struct TcpMetrics;
}  // namespace elephant::obs

namespace elephant::tcp {

/// Canonical bytes → transmission-units conversion (round up to whole
/// units of `agg` segments). The single source of truth for every
/// transfer-size computation.
[[nodiscard]] constexpr std::uint64_t bytes_to_units(std::uint64_t bytes, std::uint32_t mss,
                                                     std::uint32_t agg) {
  const std::uint64_t unit_bytes = std::uint64_t{mss} * agg;
  return (bytes + unit_bytes - 1) / unit_bytes;
}

/// Per-flow sender configuration.
struct TcpSenderConfig {
  net::FlowId flow = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  std::uint32_t mss = 8900;  ///< wire bytes per segment (paper: jumbo 8900 B)
  std::uint32_t agg = 1;     ///< segments per transmission unit (TSO/GRO analogue)
  sim::Time start_time = sim::Time::zero();
  std::uint64_t transfer_units = 0;  ///< stop after this many units (0 = unbounded elephant)
  bool ecn = false;               ///< mark packets ECT
  bool pace_always = false;       ///< ablation: pace loss-based CCAs at 2*cwnd/srtt
  sim::Time min_rto = sim::Time::milliseconds(200);
  std::uint32_t reorder_units = 3;  ///< FACK/dupack loss threshold in units
};

/// Counters exposed for experiments; segment counts are MSS-granular.
struct TcpSenderStats {
  std::uint64_t units_sent = 0;
  std::uint64_t retx_units = 0;  ///< retransmitted units (iperf3 "Retr" analogue)
  std::uint64_t rtos = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t congestion_events = 0;
  std::uint64_t lost_units_marked = 0;
};

/// A bulk-transfer ("elephant") TCP sender.
///
/// Implements the transport machinery shared by every CCA the paper tests:
/// a SACK scoreboard (struct-of-arrays with packed flag bitmaps — see
/// tcp/scoreboard.hpp), FACK-with-RACK-timing loss marking, NewReno-style
/// recovery episodes, RFC 6298 RTO with exponential backoff, delivery-rate
/// sampling (for BBR), packet-timed round tracking, and optional pacing.
/// Congestion decisions are delegated entirely to the plugged
/// cca::CongestionControl.
///
/// Sequence space is in transmission units of `agg` segments; all CCA
/// accounting is converted to segments so algorithm constants keep their
/// RFC meanings under aggregation.
class TcpSender : public net::PacketHandler {
 public:
  /// Arena-friendly C-style callback: no captures, no allocation.
  using Callback = void (*)(void*);

  /// Non-owning congestion controller: the caller (typically a per-kind
  /// cca slab) keeps `cc` alive for the sender's lifetime. This is the
  /// allocation-free path high-flow-count cells use.
  TcpSender(sim::Scheduler& sched, net::Host& local, TcpSenderConfig cfg,
            cca::CongestionControl* cc);
  /// Owning convenience overload for tests/examples built around
  /// cca::make_cca().
  TcpSender(sim::Scheduler& sched, net::Host& local, TcpSenderConfig cfg,
            std::unique_ptr<cca::CongestionControl> cc);

  /// Begin transmitting at cfg.start_time.
  void start();
  /// Stop offering new data (in-flight data still completes).
  void stop() { stopped_ = true; }

  /// Invoked exactly once when a finite transfer completes (every unit
  /// cumulatively acknowledged). By the time it runs the sender has torn
  /// itself down: both timers are disarmed and the scoreboard storage is
  /// released, so a completed flow holds no scheduler events and no
  /// window memory.
  void set_on_complete(Callback cb, void* ctx) {
    on_complete_ = cb;
    on_complete_ctx_ = ctx;
  }

  void on_packet(net::Packet&& p) override;  // ACK input

  /// Attach a flight recorder (null detaches). Emits packet send/retx,
  /// SACK/loss marks, RTO fires, and cwnd/pacing updates.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Attach telemetry handles, typically shared by every sender of a run
  /// (null detaches). Per ACK with an RTT sample: one histogram record of
  /// the smoothed RTT and one cwnd gauge store. Retransmit/RTO counters ride
  /// the existing TcpSenderStats, published by the run harness at run end.
  void set_metrics(const obs::TcpMetrics* metrics) { metrics_ = metrics; }

  [[nodiscard]] const TcpSenderStats& stats() const { return stats_; }
  [[nodiscard]] const cca::CongestionControl& cc() const { return *cc_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] const TcpSenderConfig& config() const { return cfg_; }
  /// Window state, exposed for telemetry (peak bytes) and tests.
  [[nodiscard]] const Scoreboard& scoreboard() const { return sb_; }
  /// Attach shared live-window-bytes accounting (see ScoreboardLedger).
  void set_scoreboard_ledger(ScoreboardLedger* ledger) { sb_.set_ledger(ledger); }

  [[nodiscard]] std::uint64_t una() const { return sb_.una(); }
  [[nodiscard]] std::uint64_t next_seq() const { return sb_.next_seq(); }
  [[nodiscard]] double pipe_segments() const {
    return static_cast<double>(sb_.pipe_units()) * cfg_.agg;
  }
  [[nodiscard]] double delivered_segments() const { return delivered_segments_; }
  [[nodiscard]] bool in_recovery() const { return sb_.una() < recovery_point_; }

  /// Retransmitted segments (units * agg), the quantity Fig. 8 plots.
  [[nodiscard]] std::uint64_t retx_segments() const { return stats_.retx_units * cfg_.agg; }

  /// Finite transfers: true once every unit of the configured size is
  /// cumulatively acknowledged.
  [[nodiscard]] bool completed() const {
    return cfg_.transfer_units != 0 && sb_.una() >= cfg_.transfer_units;
  }
  /// Completion instant (zero until completed) — the FCT numerator.
  [[nodiscard]] sim::Time completion_time() const { return completion_time_; }

 private:
  [[nodiscard]] double cwnd_segments() const;
  [[nodiscard]] bool can_send_now() const;
  [[nodiscard]] std::optional<std::uint64_t> pick_unit_to_send();

  void try_send();
  void send_unit(std::uint64_t abs);
  void teardown_after_completion();
  void process_sacks(const net::Packet& ack, std::uint64_t* newly_delivered_units,
                     DeliverySample* newest);
  void mark_losses();
  void enter_or_update_recovery(double lost_segments);
  void arm_rto();
  void rto_timer_fired();
  void do_rto();
  void arm_pacing(sim::Time at);
  void trace_cwnd();

  sim::Scheduler& sched_;
  net::Host& local_;
  TcpSenderConfig cfg_;
  cca::CongestionControl* cc_;                     // never null
  std::unique_ptr<cca::CongestionControl> owned_cc_;  // only on the owning path
  RttEstimator rtt_;
  TcpSenderStats stats_;

  Scoreboard sb_;  // SACK scoreboard: window scalars + SoA unit state

  double delivered_segments_ = 0;
  sim::Time delivered_time_ = sim::Time::zero();
  double next_round_delivered_ = 0;

  std::uint64_t recovery_point_ = 0;

  // RTO machinery (single outstanding lazy timer in a re-armable slot: ACK
  // progress only rewrites rto_deadline_; the slot is re-keyed, never
  // cancelled and re-queued).
  sim::Time rto_deadline_ = sim::Time::max();
  sim::TimerHandle rto_timer_;
  bool rto_armed_ = false;
  std::uint32_t rto_backoff_ = 1;

  // Pacing machinery (same re-armable slot pattern).
  sim::Time next_pace_time_ = sim::Time::zero();
  sim::TimerHandle pace_timer_;
  bool pace_armed_ = false;

  bool started_ = false;
  bool stopped_ = false;
  sim::Time completion_time_ = sim::Time::zero();

  Callback on_complete_ = nullptr;
  void* on_complete_ctx_ = nullptr;

  // Flight recorder (null = tracing off; hot paths pay one branch).
  trace::Tracer* tracer_ = nullptr;
  // Telemetry handles (null = metrics off; ACK path pays one branch).
  const obs::TcpMetrics* metrics_ = nullptr;
  // Last traced cwnd/pacing (dedups kCwndUpdate records). Observer state.
  double last_traced_cwnd_ = -1;
  double last_traced_pacing_ = -1;
};

}  // namespace elephant::tcp

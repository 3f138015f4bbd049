#pragma once

#include "aqm/queue_disc.hpp"
#include "sim/random.hpp"
#include "sim/ring_deque.hpp"

namespace elephant::aqm {

/// Configuration for RED. Defaults follow the common `tc qdisc ... red`
/// recipe the paper's scripts use: thresholds derived from the byte limit,
/// drop probability 0.02, gentle mode on.
struct RedConfig {
  std::size_t limit_bytes = 0;  ///< hard queue capacity
  std::size_t min_bytes = 0;    ///< min threshold; 0 → limit/12
  std::size_t max_bytes = 0;    ///< max threshold; 0 → limit/4
  double max_p = 0.02;          ///< drop probability at the max threshold
  double weight = 0.002;        ///< EWMA weight w_q (Floyd & Jacobson)
  bool gentle = true;           ///< ramp max_p→1 between max and 2*max
  bool ecn = false;             ///< mark ECT packets instead of dropping
  std::uint32_t mean_packet = 9000;  ///< for the idle-period decay estimate

  /// Adaptive RED (Floyd, Gummadi & Shenker 2001; `tc red adaptive`): adjust
  /// max_p every `adapt_interval` to steer the average queue into the middle
  /// half of [min, max] — AIMD on max_p within [adapt_p_min, adapt_p_max].
  /// This is the parameter self-tuning the paper's conclusion calls for to
  /// fix RED on high-bandwidth links.
  bool adaptive = false;
  sim::Time adapt_interval = sim::Time::milliseconds(500);
  double adapt_alpha = 0.01;  ///< additive max_p increase (capped at max_p/4)
  double adapt_beta = 0.9;    ///< multiplicative max_p decrease
  double adapt_p_min = 0.01;
  double adapt_p_max = 0.5;

  /// Fill the derived thresholds from the limit.
  void finalize();
};

/// Random Early Detection (Floyd & Jacobson 1993), byte-mode with the
/// "gentle" extension, as implemented by Linux `sch_red`.
///
/// The average queue is an EWMA updated on every arrival; between min and
/// max thresholds packets are dropped with probability scaled by the count
/// of packets since the last drop (uniformization). During idle periods the
/// average decays as if empty-queue departures had occurred.
class RedQueue : public QueueDisc {
 public:
  RedQueue(sim::Scheduler& sched, RedConfig cfg, std::uint64_t seed);

  bool enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue() override;

  [[nodiscard]] std::size_t byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_length() const override { return queue_.size(); }
  [[nodiscard]] std::string name() const override { return "red"; }

  [[nodiscard]] double average_queue() const { return avg_; }
  [[nodiscard]] double current_max_p() const { return max_p_; }
  [[nodiscard]] const RedConfig& config() const { return cfg_; }

 private:
  /// Probability of an early drop/mark for the current average queue.
  [[nodiscard]] double drop_probability() const;
  void decay_for_idle();
  void maybe_adapt();

  RedConfig cfg_;
  sim::Rng rng_;
  sim::RingDeque<net::Packet> queue_;
  std::size_t bytes_ = 0;
  double avg_ = 0.0;        ///< EWMA of queue length in bytes
  std::int64_t count_ = 0;  ///< packets since last early drop (-1 = fresh)
  sim::Time idle_since_ = sim::Time::zero();  ///< when the queue last became empty
  double max_p_ = 0.02;                       ///< live max_p (adapted if adaptive)
  sim::Time next_adapt_ = sim::Time::zero();
};

}  // namespace elephant::aqm

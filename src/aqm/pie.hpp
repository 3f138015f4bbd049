#pragma once

#include "aqm/queue_disc.hpp"
#include "sim/random.hpp"
#include "sim/ring_deque.hpp"

namespace elephant::aqm {

/// PIE knobs (RFC 8033 / Linux `sch_pie` defaults).
struct PieConfig {
  std::size_t limit_bytes = 0;
  sim::Time target = sim::Time::milliseconds(15);     ///< target queueing delay
  sim::Time t_update = sim::Time::milliseconds(15);   ///< probability update period
  double alpha = 0.125;  ///< weight on (delay - target), in units of prob/second-of-error
  double beta = 1.25;    ///< weight on (delay - old_delay)
  sim::Time burst_allowance = sim::Time::milliseconds(150);
  std::uint32_t mean_packet = 9000;
  bool ecn = false;
  double ecn_prob_cap = 0.1;  ///< above this probability, drop even ECT packets
};

/// PIE — Proportional Integral controller Enhanced (RFC 8033).
///
/// Estimates queueing delay from the departure rate and drops arriving
/// packets with a probability driven by a PI controller on that delay.
/// Included beyond the paper's three AQMs: it is the other widely deployed
/// delay-controlling qdisc, and gives the future-work sweeps a second
/// modern reference point next to FQ-CoDel.
class PieQueue : public QueueDisc {
 public:
  PieQueue(sim::Scheduler& sched, PieConfig cfg, std::uint64_t seed);

  bool enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue() override;

  [[nodiscard]] std::size_t byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_length() const override { return queue_.size(); }
  [[nodiscard]] std::string name() const override { return "pie"; }

  [[nodiscard]] double drop_probability() const { return prob_; }
  [[nodiscard]] sim::Time estimated_delay() const { return cur_delay_; }
  [[nodiscard]] const PieConfig& config() const { return cfg_; }

 private:
  void update_probability();

  PieConfig cfg_;
  sim::Rng rng_;
  sim::RingDeque<net::Packet> queue_;
  std::size_t bytes_ = 0;

  double prob_ = 0.0;
  sim::Time cur_delay_ = sim::Time::zero();
  sim::Time old_delay_ = sim::Time::zero();
  sim::Time next_update_ = sim::Time::zero();
  sim::Time burst_left_ = sim::Time::zero();
  bool in_measurement_ = false;

  // Departure-rate estimation (RFC 8033 §5.2).
  std::size_t dq_count_bytes_ = 0;
  sim::Time dq_start_ = sim::Time::zero();
  double avg_drain_rate_ = 0.0;  ///< bytes/second
};

}  // namespace elephant::aqm

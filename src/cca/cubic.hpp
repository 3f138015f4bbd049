#pragma once

#include "cca/congestion_control.hpp"

namespace elephant::cca {

/// CUBIC tunables (RFC 8312 defaults, matching Linux `tcp_cubic`).
struct CubicParams {
  double c = 0.4;          ///< cubic scaling constant (segments/s^3)
  double beta = 0.7;       ///< multiplicative decrease factor
  bool fast_convergence = true;
  bool tcp_friendliness = true;
  bool hystart = true;     ///< delay-based slow-start exit (Linux default)
};

/// TCP CUBIC (RFC 8312) — the Linux default and the paper's reference CCA.
///
/// The window grows as a cubic function of time since the last congestion
/// event, anchored at the pre-loss window W_max; a "TCP-friendly" lower
/// bound keeps it at least as aggressive as Reno at small BDPs. HyStart's
/// delay-increase heuristic exits slow start before the buffer floods,
/// as Linux does.
class Cubic : public CongestionControl {
 public:
  explicit Cubic(const CcaParams& params, CubicParams cubic = {});

  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;
  void on_rto(sim::Time now) override;

  [[nodiscard]] double cwnd_segments() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  [[nodiscard]] std::string name() const override { return "cubic"; }

  [[nodiscard]] double w_max() const { return w_max_; }
  [[nodiscard]] double k() const { return k_; }

 private:
  void enter_congestion_avoidance(sim::Time now);
  void hystart_update(const AckSample& ack);

  CubicParams cubic_;
  double cwnd_;
  double ssthresh_;
  double w_max_ = 0;
  double k_ = 0;                       ///< seconds to return to w_max
  sim::Time epoch_start_ = sim::Time::zero();
  double w_est_ = 0;                   ///< TCP-friendly (Reno-equivalent) window
  double est_accum_ = 0;

  // HyStart state (delay-increase detection, one evaluation per round).
  sim::Time hs_round_min_rtt_ = sim::Time::max();
  sim::Time hs_prev_round_min_rtt_ = sim::Time::max();
  int hs_samples_ = 0;
};

}  // namespace elephant::cca

#pragma once

#include "cca/congestion_control.hpp"

namespace elephant::cca {

/// H-TCP tunables (Leith & Shorten, PFLDnet 2004).
struct HtcpParams {
  double delta_l = 1.0;      ///< seconds of low-speed (Reno) behaviour after loss
  double beta_min = 0.5;
  double beta_max = 0.8;
  bool adaptive_backoff = true;  ///< β = RTTmin/RTTmax measured per epoch
  bool bandwidth_switch = true;  ///< β = 0.5 on >20% inter-epoch throughput shift (Linux default)
  bool rtt_scaling = false;      ///< the paper's kernels keep Linux default (off)
};

/// Hamilton TCP: additive-increase rate grows with the time Δ since the last
/// congestion event — α(Δ) = 1 + 10(Δ−Δ_L) + ((Δ−Δ_L)/2)² — and the backoff
/// factor adapts to the observed queuing (β = RTT_min/RTT_max, clamped).
///
/// Long loss-free periods therefore make the flow rapidly more aggressive,
/// which is exactly why it scales to high BDPs, and why bufferbloat-induced
/// RTT growth (large FIFO buffers) pushes its β toward 0.5 and lets CUBIC
/// overtake it — the effect in paper Fig. 2(k)–(o).
class Htcp : public CongestionControl {
 public:
  explicit Htcp(const CcaParams& params, HtcpParams htcp = {});

  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;
  void on_rto(sim::Time now) override;

  [[nodiscard]] double cwnd_segments() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  [[nodiscard]] std::string name() const override { return "htcp"; }

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double beta() const { return beta_; }

  void save(sim::SnapshotWriter& w) const override {
    w.put_f64(cwnd_);
    w.put_f64(ssthresh_);
    w.put_f64(alpha_);
    w.put_f64(beta_);
    w.put_f64(acked_accum_);
    w.put_pod(last_congestion_);
    w.put_pod(epoch_rtt_min_);
    w.put_pod(epoch_rtt_max_);
    w.put_f64(epoch_throughput_);
    w.put_pod(epoch_start_);
    w.put_f64(last_bw_);
  }

 private:
  void update_alpha(sim::Time now, sim::Time rtt);

  HtcpParams htcp_;
  double cwnd_;
  double ssthresh_;
  double alpha_ = 1.0;
  double beta_ = 0.5;
  double acked_accum_ = 0;

  sim::Time last_congestion_ = sim::Time::zero();
  sim::Time epoch_rtt_min_ = sim::Time::max();
  sim::Time epoch_rtt_max_ = sim::Time::zero();
  double epoch_throughput_ = 0;       ///< delivered segs at epoch start
  sim::Time epoch_start_ = sim::Time::zero();
  double last_bw_ = 0;                ///< previous epoch's throughput (segs/s)
};

}  // namespace elephant::cca

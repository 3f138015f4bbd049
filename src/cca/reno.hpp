#pragma once

#include "cca/congestion_control.hpp"

namespace elephant::cca {

/// TCP (New)Reno: slow start, AIMD congestion avoidance, halving on loss
/// (RFC 5681 / RFC 6582). The conservative baseline whose poor high-BDP
/// scaling the paper demonstrates.
class Reno : public CongestionControl {
 public:
  explicit Reno(const CcaParams& params)
      : CongestionControl(params),
        cwnd_(params.initial_cwnd_segments),
        ssthresh_(1e18) {}

  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;
  void on_rto(sim::Time now) override;

  [[nodiscard]] double cwnd_segments() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  [[nodiscard]] std::string name() const override { return "reno"; }
  [[nodiscard]] double ssthresh() const { return ssthresh_; }

 private:
  double cwnd_;
  double ssthresh_;
  double acked_accum_ = 0;  ///< appropriate byte counting for CA increase
};

}  // namespace elephant::cca

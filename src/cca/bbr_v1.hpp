#pragma once

#include "cca/congestion_control.hpp"
#include "cca/windowed_filter.hpp"
#include "sim/random.hpp"

namespace elephant::cca {

/// BBRv1 tunables (Linux tcp_bbr.c defaults).
struct BbrV1Params {
  double high_gain = 2.885;          ///< 2/ln(2): startup pacing & cwnd gain
  double drain_gain = 1.0 / 2.885;
  double cwnd_gain = 2.0;            ///< ProbeBW cwnd gain → the 2×BDP inflight cap
  double probe_up_gain = 1.25;
  double probe_down_gain = 0.75;
  int bw_window_rounds = 10;
  sim::Time min_rtt_window = sim::Time::seconds(10.0);
  sim::Time probe_rtt_duration = sim::Time::milliseconds(200);
  double probe_rtt_cwnd_segments = 4;
  double full_bw_threshold = 1.25;   ///< startup exits when growth < 25% ...
  int full_bw_rounds = 3;            ///< ... for 3 consecutive rounds
};

/// BBR version 1 (Cardwell et al., CACM 2017; Linux tcp_bbr.c).
///
/// Model-based control: a windowed-max filter estimates bottleneck bandwidth,
/// a windowed-min filter estimates the propagation RTT, and the pacing rate /
/// cwnd are gains applied to their product. Packet loss is *not* a
/// congestion signal — only an RTO collapses the window — which is what
/// makes BBRv1 run over RED-style random drops (paper §5.2) and retransmit
/// far more than every other CCA (paper Fig. 8, Table 3).
class BbrV1 : public CongestionControl {
 public:
  explicit BbrV1(const CcaParams& params, BbrV1Params bbr = {});

  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;
  void on_rto(sim::Time now) override;

  [[nodiscard]] double cwnd_segments() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override { return pacing_rate_bps_; }
  [[nodiscard]] bool in_slow_start() const override { return mode_ == Mode::kStartup; }
  [[nodiscard]] std::string name() const override { return "bbr1"; }

  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] double bw_estimate() const { return max_bw_.best(); }  // segments/s
  [[nodiscard]] sim::Time min_rtt() const { return min_rtt_; }

 private:
  [[nodiscard]] double bdp_segments(double gain) const;
  void update_model(const AckSample& ack);
  void check_full_pipe(const AckSample& ack);
  void update_state(const AckSample& ack);
  void advance_cycle_phase(const AckSample& ack);
  void update_min_rtt(const AckSample& ack);
  void set_pacing_and_cwnd(const AckSample& ack);

  BbrV1Params bbr_;
  sim::Rng rng_;
  Mode mode_ = Mode::kStartup;

  MaxFilter<double, std::int64_t> max_bw_;  ///< segments/s over rounds
  std::int64_t round_count_ = 0;

  sim::Time min_rtt_ = sim::Time::zero();
  sim::Time min_rtt_stamp_ = sim::Time::zero();
  sim::Time probe_rtt_done_ = sim::Time::zero();
  bool probe_rtt_round_done_ = false;

  bool full_bw_reached_ = false;
  double full_bw_ = 0;
  int full_bw_count_ = 0;

  int cycle_index_ = 0;
  sim::Time cycle_start_ = sim::Time::zero();
  bool saw_loss_in_round_ = false;

  double pacing_gain_;
  double cwnd_gain_;
  double cwnd_;
  double prior_cwnd_ = 0;
  double pacing_rate_bps_ = 0;
  bool pacing_initialized_ = false;
};

}  // namespace elephant::cca

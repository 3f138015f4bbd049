#pragma once

#include "cca/congestion_control.hpp"
#include "cca/windowed_filter.hpp"
#include "sim/random.hpp"

namespace elephant::cca {

/// BBRv2 tunables (google/bbr v2alpha defaults).
struct BbrV2Params {
  double high_gain = 2.885;
  double drain_gain = 1.0 / 2.885;
  double cwnd_gain = 2.0;
  double probe_up_pacing_gain = 1.25;
  double probe_down_pacing_gain = 0.75;
  double loss_thresh = 0.02;        ///< the 2% per-round loss threshold
  double beta = 0.7;                ///< multiplicative inflight_hi reduction
  double headroom = 0.85;           ///< cruise below inflight_hi to leave room
  int startup_loss_rounds = 3;      ///< lossy rounds that end startup
  int bw_window_rounds = 10;
  sim::Time min_rtt_window = sim::Time::seconds(5.0);
  sim::Time probe_rtt_duration = sim::Time::milliseconds(200);
  double probe_rtt_cwnd_gain = 0.5;  ///< ProbeRTT floor: half the estimated BDP
  sim::Time min_probe_interval = sim::Time::seconds(2.0);  ///< cruise 2–3 s
  sim::Time max_probe_interval = sim::Time::seconds(3.0);
  double ecn_factor = 0.85;          ///< inflight_hi scaling on ECN-echo rounds
};

/// BBR version 2 (Cardwell et al., IETF-106; google/bbr v2alpha).
///
/// Keeps BBRv1's model-based core but bounds it with explicit loss/ECN
/// feedback: when the per-round loss rate exceeds `loss_thresh` (2%), the
/// upper inflight bound `inflight_hi` is cut by `beta` (0.7), and cruising
/// keeps `headroom` (85%) of that bound. Bandwidth probing follows the
/// DOWN → CRUISE → REFILL → UP cycle with randomized 2–3 s cruise periods.
/// These are exactly the mechanisms the paper invokes to explain BBRv2's
/// fairness (§5.1–§5.2): it yields to CUBIC in deep FIFO buffers (drop rate
/// crosses 2%) yet still dominates under RED's sub-threshold random drops.
class BbrV2 : public CongestionControl {
 public:
  explicit BbrV2(const CcaParams& params, BbrV2Params bbr = {});

  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;
  void on_rto(sim::Time now) override;

  [[nodiscard]] double cwnd_segments() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override { return pacing_rate_bps_; }
  [[nodiscard]] bool in_slow_start() const override { return mode_ == Mode::kStartup; }
  [[nodiscard]] std::string name() const override { return "bbr2"; }

  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };
  enum class Phase { kDown, kCruise, kRefill, kUp };
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] double inflight_hi() const { return inflight_hi_; }
  [[nodiscard]] double bw_estimate() const { return max_bw_.best(); }
  [[nodiscard]] sim::Time min_rtt() const { return min_rtt_; }

  void save(sim::SnapshotWriter& w) const override {
    w.put_pod(rng_);
    w.put_u8(static_cast<std::uint8_t>(mode_));
    w.put_u8(static_cast<std::uint8_t>(phase_));
    w.put_pod(max_bw_);
    w.put_i64(round_count_);
    w.put_pod(min_rtt_);
    w.put_pod(min_rtt_stamp_);
    w.put_pod(probe_rtt_done_);
    w.put_bool(probe_rtt_round_done_);
    w.put_bool(full_bw_reached_);
    w.put_f64(full_bw_);
    w.put_pod(full_bw_count_);
    w.put_pod(startup_lossy_rounds_);
    w.put_f64(inflight_hi_);
    w.put_f64(inflight_lo_);
    w.put_f64(lost_in_round_);
    w.put_f64(delivered_in_round_);
    w.put_bool(ece_in_round_);
    w.put_bool(loss_round_);
    w.put_pod(phase_start_);
    w.put_pod(cruise_duration_);
    w.put_bool(probe_up_hit_hi_);
    w.put_f64(probe_up_rounds_);
    w.put_f64(probe_up_acks_);
    w.put_f64(probe_up_cnt_);
    w.put_f64(pacing_gain_);
    w.put_f64(cwnd_gain_);
    w.put_f64(cwnd_);
    w.put_f64(prior_cwnd_);
    w.put_f64(pacing_rate_bps_);
  }

 private:
  [[nodiscard]] double bdp_segments(double gain) const;
  [[nodiscard]] double inflight_with_headroom() const;
  void update_model(const AckSample& ack);
  void end_of_round(const AckSample& ack);
  void update_state(const AckSample& ack);
  void start_probe_down(sim::Time now);
  void start_probe_cruise(sim::Time now);
  void start_probe_refill(sim::Time now);
  void start_probe_up(sim::Time now);
  void update_min_rtt(const AckSample& ack);
  void set_pacing_and_cwnd(const AckSample& ack);

  BbrV2Params bbr_;
  sim::Rng rng_;
  Mode mode_ = Mode::kStartup;
  Phase phase_ = Phase::kDown;

  MaxFilter<double, std::int64_t> max_bw_;
  std::int64_t round_count_ = 0;

  sim::Time min_rtt_ = sim::Time::zero();
  sim::Time min_rtt_stamp_ = sim::Time::zero();
  sim::Time probe_rtt_done_ = sim::Time::zero();
  bool probe_rtt_round_done_ = false;

  bool full_bw_reached_ = false;
  double full_bw_ = 0;
  int full_bw_count_ = 0;
  int startup_lossy_rounds_ = 0;

  double inflight_hi_ = 1e18;  ///< "infinite" until loss/ECN teaches us a bound
  double inflight_lo_ = 1e18;  ///< short-term loss bound, reset every REFILL
  double lost_in_round_ = 0;
  double delivered_in_round_ = 0;
  bool ece_in_round_ = false;
  bool loss_round_ = false;  ///< last completed round crossed loss_thresh

  sim::Time phase_start_ = sim::Time::zero();
  sim::Time cruise_duration_ = sim::Time::zero();
  bool probe_up_hit_hi_ = false;
  double probe_up_rounds_ = 0;  ///< rounds spent in the current UP phase
  double probe_up_acks_ = 0;    ///< acked segments toward the next hi bump
  double probe_up_cnt_ = 1;     ///< acked segments needed per +1 segment of hi

  double pacing_gain_;
  double cwnd_gain_;
  double cwnd_;
  double prior_cwnd_ = 0;
  double pacing_rate_bps_ = 0;
};

}  // namespace elephant::cca

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace elephant::cca {

/// Static parameters every congestion controller receives.
struct CcaParams {
  double mss_bytes = 8900;            ///< wire bytes per segment (jumbo frames)
  double initial_cwnd_segments = 10;  ///< Linux IW10
  double min_cwnd_segments = 2;
  std::uint64_t seed = 1;             ///< for randomized probe timing (BBRv2)
};

/// Everything a controller may want to know about one incoming ACK.
/// Counts are in segments (MSS units), independent of TSO-style aggregation.
struct AckSample {
  sim::Time now{};
  sim::Time rtt{};                 ///< sample for this ACK; zero if invalid (retx-tainted)
  sim::Time min_rtt{};             ///< sender's lifetime minimum RTT estimate
  double acked_segments = 0;       ///< newly delivered by this ACK (cum + SACK)
  double inflight_segments = 0;    ///< pipe after processing this ACK
  double delivered_segments = 0;   ///< lifetime delivered total
  double delivery_rate = 0;        ///< segments/s rate sample; 0 if unavailable
  bool round_start = false;        ///< first ACK of a new packet-timed round trip
  bool ece = false;                ///< ECN echo set by the receiver
};

/// A batch of segments newly declared lost by the sender's scoreboard.
struct LossSample {
  sim::Time now{};
  double lost_segments = 0;
  double inflight_segments = 0;
  double delivered_segments = 0;
  /// True for the first loss of a new recovery episode: loss-based CCAs
  /// reduce once per episode, not once per lost packet.
  bool new_congestion_event = false;
};

/// The pluggable congestion-control interface — the axis the paper varies.
///
/// The sender drives controllers with ACK, loss, and RTO upcalls and reads
/// back a congestion window (segments) and an optional pacing rate. A pacing
/// rate of zero means the flow is ACK-clocked (loss-based Linux defaults
/// without sch_fq); BBR variants always pace.
class CongestionControl {
 public:
  explicit CongestionControl(const CcaParams& params) : params_(params) {}
  virtual ~CongestionControl() = default;

  CongestionControl(const CongestionControl&) = delete;
  CongestionControl& operator=(const CongestionControl&) = delete;

  virtual void on_ack(const AckSample& ack) = 0;
  virtual void on_loss(const LossSample& loss) = 0;
  virtual void on_rto(sim::Time now) = 0;

  [[nodiscard]] virtual double cwnd_segments() const = 0;
  /// Pacing rate in bits/s of payload; 0 disables pacing.
  [[nodiscard]] virtual double pacing_rate_bps() const { return 0.0; }
  [[nodiscard]] virtual bool in_slow_start() const { return false; }
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const CcaParams& params() const { return params_; }

 protected:
  CcaParams params_;
};

/// The five algorithms the paper studies.
enum class CcaKind { kReno, kCubic, kHtcp, kBbrV1, kBbrV2 };

[[nodiscard]] std::string to_string(CcaKind kind);
[[nodiscard]] CcaKind cca_kind_from_string(const std::string& name);

/// Construct a controller by kind.
[[nodiscard]] std::unique_ptr<CongestionControl> make_cca(CcaKind kind, const CcaParams& params);

}  // namespace elephant::cca

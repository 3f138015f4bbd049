#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace elephant::net {
class Port;
}
namespace elephant::sim {
class Scheduler;
}  // namespace elephant::sim
namespace elephant::trace {
class Tracer;
}

namespace elephant::fault {

/// The network anomalies the paper's §6 future work asks about, applied to
/// one port (the bottleneck) on a schedule. The numbers are part of the
/// plan signature and of kFault trace records (v0), so they never move.
enum class FaultKind : std::uint8_t {
  kLinkDown = 0,   ///< outage: nothing serializes for `duration`
  kLossBurst = 2,  ///< link corruption loss with probability `value`
};

/// One timed perturbation. `duration` of zero means the fault persists to the
/// end of the run; otherwise it is reverted `duration` after `at`.
struct FaultEvent {
  sim::Time at{};
  FaultKind kind = FaultKind::kLinkDown;
  double value = 0;  ///< loss probability (kLossBurst)
  sim::Time duration{};
};

/// A schedule of faults for one run. Part of the experiment's identity:
/// signature() feeds the run id (the journal key), so perturbed and clean
/// runs never share journal lines.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// Stable content hash ("" for an empty plan), suitable as an id suffix.
  [[nodiscard]] std::string signature() const;

  FaultPlan& add(FaultEvent e) {
    events.push_back(e);
    return *this;
  }

  // Common scenarios.
  /// `flaps` down/up cycles of `down_for` each, the first starting at `at`,
  /// back to back with an equal up interval (cycles 2 x `down_for` apart).
  [[nodiscard]] static FaultPlan link_flap(sim::Time at, sim::Time down_for, int flaps = 1);
  [[nodiscard]] static FaultPlan loss_burst(sim::Time at, double loss_prob,
                                            sim::Time for_time = sim::Time::zero());
};

/// One probabilistic fault site: a single seeded draw, true with
/// probability `p`.
[[nodiscard]] inline bool chance(sim::Rng& rng, double p) { return rng.next_double() < p; }

/// Two-state Gilbert–Elliott loss parameters: bursty loss, complementing the
/// independent Bernoulli arrival loss. State advances per arriving packet;
/// a packet is lost with its state's loss probability.
struct GilbertElliottParams {
  double p_good_to_bad = 0;    ///< per-packet P(good → bad)
  double p_bad_to_good = 0.5;  ///< per-packet P(bad → good)
  double loss_good = 0;
  double loss_bad = 1.0;

  [[nodiscard]] bool enabled() const { return p_good_to_bad > 0 && p_bad_to_good > 0; }

  /// Long-run loss fraction: π_bad·loss_bad + π_good·loss_good.
  [[nodiscard]] double stationary_loss() const {
    if (!enabled()) return 0;
    const double pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good);
    return (1 - pi_bad) * loss_good + pi_bad * loss_bad;
  }

  /// Parameters hitting a target stationary loss with bursts of
  /// `mean_burst_packets` consecutive losses (loss_bad = 1, loss_good = 0).
  [[nodiscard]] static GilbertElliottParams from_loss(double stationary,
                                                      double mean_burst_packets);
};

/// Loss applied to packets arriving at a port, ahead of its queue — the
/// "variable rates of packet loss" anomaly of the paper's §6. A two-state
/// Gilbert–Elliott chain (bursty loss) decides first; a packet it lets
/// through then takes one independent Bernoulli trial. Each process runs on
/// its own seeded stream, so runs stay reproducible.
class ArrivalLoss {
 public:
  ArrivalLoss(double rate, const GilbertElliottParams& ge, std::uint64_t seed)
      : rate_(rate), rng_(seed ^ 0x1055), ge_(ge), ge_rng_(seed ^ 0x6e55) {}

  /// Decide the fate of one arriving packet of `bytes`; true means it is
  /// lost (and counted).
  [[nodiscard]] bool drop(std::uint32_t bytes);

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t bytes_dropped() const { return bytes_dropped_; }
  [[nodiscard]] bool in_bad_state() const { return bad_; }

 private:
  double rate_;
  sim::Rng rng_;
  GilbertElliottParams ge_;
  sim::Rng ge_rng_;
  bool bad_ = false;
  std::uint64_t drops_ = 0;
  std::uint64_t bytes_dropped_ = 0;
};

/// Applies a FaultPlan to a port through the scheduler. Owns the RNG that
/// drives the port's link loss, so the injector must outlive the run. Every
/// apply/revert is emitted to the flight recorder as a kFault record
/// (v0 = kind, v1 = magnitude, v2 = 1 apply / 0 revert).
class FaultInjector {
 public:
  FaultInjector(sim::Scheduler& sched, net::Port& target, std::uint64_t seed,
                trace::Tracer* tracer = nullptr);

  /// Schedule every event of the plan (and its reversion, when bounded).
  void install(const FaultPlan& plan);

  [[nodiscard]] std::uint64_t applied() const { return applied_; }

 private:
  void apply(const FaultEvent& e, std::size_t index);
  void revert(const FaultEvent& e, std::size_t index);
  void record(const FaultEvent& e, std::size_t index, bool applying);

  sim::Scheduler& sched_;
  net::Port& target_;
  trace::Tracer* tracer_;
  sim::Rng rng_;
  int link_down_depth_ = 0;  ///< overlapping outages nest
  std::uint64_t applied_ = 0;
};

}  // namespace elephant::fault

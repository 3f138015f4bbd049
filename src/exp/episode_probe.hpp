#pragma once

#include <string>
#include <vector>

#include "obs/episode.hpp"
#include "sim/time.hpp"

namespace elephant::net {
class Port;
}
namespace elephant::fault {
class FaultInjector;
}

namespace elephant::exp {

class FlowFactory;
struct ExperimentConfig;

/// Bridges the live simulation objects to the obs::EpisodeDetector: each
/// sample() reads cumulative per-flow delivered bytes / retx / RTO / cwnd
/// from the flow factory and drop/mark/injected-loss/fault evidence from the
/// bottleneck qdisc chain, then feeds the plain-number snapshot to the
/// detector. Read-only against the simulation — it schedules nothing and
/// mutates nothing, which is what keeps episode-enabled runs digest-identical
/// to plain ones.
///
/// Only elephant-class flows participate in the fairness window (the paper's
/// object of study); mice and background aggregates would read as permanent
/// "unfairness" against the elephants they are meant to contrast with.
class EpisodeProbe {
 public:
  /// `faults` may be null (no fault plan). All references must outlive the
  /// probe. Detector options come from cfg.episodes.
  EpisodeProbe(const ExperimentConfig& cfg, FlowFactory& factory,
               net::Port& bottleneck, const fault::FaultInjector* faults);

  /// Ingest the cumulative state at simulated time `t`. Allocation-free after
  /// the first call (the sample buffer is reused).
  void sample(sim::Time t);

  /// Close any open episode and, when cfg.episodes.jsonl_path is set, write
  /// episodes.jsonl (failures are reported to stderr, not thrown — the run's
  /// result must survive a full disk).
  void finish(sim::Time t);

  [[nodiscard]] const std::vector<obs::Episode>& episodes() const {
    return detector_.episodes();
  }
  [[nodiscard]] obs::EpisodeDetector& detector() { return detector_; }

 private:
  [[nodiscard]] obs::QueueSample queue_sample() const;

  const ExperimentConfig& cfg_;
  FlowFactory& factory_;
  net::Port& bottleneck_;
  const fault::FaultInjector* faults_;
  obs::EpisodeDetector detector_;
  std::vector<obs::FlowSample> buf_;
};

}  // namespace elephant::exp

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "exp/config.hpp"
#include "exp/episode_probe.hpp"
#include "exp/flow_factory.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace elephant::exp {

/// One experiment cell held open for stepping — the only cell runner:
/// run_experiment() constructs one, runs it to the configured duration and
/// finalizes it; the examples and the benchmark's traced variant step it in
/// chunks with run_chunk().
///
/// Construction replays the historical run_experiment() setup byte for
/// byte: the same objects constructed in the same order with the same draws
/// from the cell RNG, so golden digests are unchanged
/// (tests/determinism_digest_test.cpp pins this). A freshly built cell is
/// therefore a complete, reproducible t = 0 state; nothing is ever rewound.
class Cell {
 public:
  explicit Cell(const ExperimentConfig& cfg);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::Dumbbell& network() { return *net_; }
  [[nodiscard]] FlowFactory& flows() { return *factory_; }
  [[nodiscard]] sim::Time duration() const { return duration_; }
  [[nodiscard]] sim::Time now() const { return sched_.now(); }

  /// Execute at most `max_events` further events (0 = unbounded), never past
  /// `deadline`. Returns why the chunk stopped; on kEventBudget the clock
  /// stays at the last executed event, so the cell stops exactly on an event
  /// boundary.
  sim::Scheduler::StopReason run_chunk(std::uint64_t max_events, sim::Time deadline);
  sim::Scheduler::StopReason run_chunk(std::uint64_t max_events) {
    return run_chunk(max_events, duration_);
  }

  /// Historical run_experiment() behavior: run to the configured duration
  /// under the config's watchdog budgets (throwing RunTimeout on a budget
  /// stop) and finalize. Attached observers (episode probe, queue-depth
  /// tracing) sample between scheduler calls, never from inside the queue.
  /// A run in which no flow delivered a byte throws InvariantViolation.
  ExperimentResult run_to_completion();

  /// Aggregate results and check invariants against the current state
  /// (conservation at the bottleneck, cwnd floor, finite throughput; a
  /// breach throws InvariantViolation). Normally called once the clock
  /// reached duration(); calling mid-run is safe — conservation and cwnd
  /// invariants hold at every event boundary — but per-flow throughputs are
  /// then averaged over the flow's full configured window, not the elapsed
  /// part.
  ExperimentResult finalize();

 private:
  ExperimentConfig cfg_;  ///< stable copy: the factory holds a reference
  std::chrono::steady_clock::time_point wall_start_;
  sim::Scheduler sched_;
  sim::Rng rng_;
  sim::Time duration_{};
  std::optional<net::Dumbbell> net_;
  std::optional<fault::FaultInjector> faults_;
  obs::SchedulerMetrics sched_metrics_;
  obs::QueueMetrics queue_metrics_;
  obs::TcpMetrics tcp_metrics_;
  std::optional<FlowFactory> factory_;
  /// Fairness-episode sampler (cfg.episodes.enabled only); read-only against
  /// the simulation, so its presence never changes a digest.
  std::optional<EpisodeProbe> probe_;
  /// Runner-phase wall-time histograms (cfg.metrics only): prof.cell_run_s /
  /// prof.cell_finalize_s, plus prof.sched_run_s via sched_metrics_.
  obs::LogLinHistogram* prof_run_s_ = nullptr;
  obs::LogLinHistogram* prof_finalize_s_ = nullptr;
};

}  // namespace elephant::exp

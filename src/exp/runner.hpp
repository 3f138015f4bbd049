#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqm/queue_disc.hpp"
#include "exp/config.hpp"

namespace elephant::exp {

/// Per-flow outcome of one run.
struct FlowResult {
  std::uint32_t flow = 0;
  int sender = 0;  ///< 0 = client1/cca1, 1 = client2/cca2
  std::string cca;
  double throughput_bps = 0;     ///< receiver goodput over the flow's active window
  double start_s = 0;            ///< staggered start offset (seconds into the run)
  std::uint64_t retx_segments = 0;
  std::uint64_t rtos = 0;
  double srtt_ms = 0;

  // Workload bookkeeping; defaults describe a paper elephant.
  std::string cls;                   ///< traffic-class name ("" for paper elephants)
  std::uint64_t transfer_bytes = 0;  ///< finite transfer size; 0 = unbounded
  bool completed = false;            ///< finite flow fully acknowledged
  double fct_s = 0;                  ///< flow-completion time; 0 if not completed
};

/// Per-traffic-class aggregate of one run; populated only for non-default
/// workloads (the paper default reports no classes).
struct ClassResult {
  std::string name;
  std::uint32_t flows = 0;      ///< instantiated
  std::uint32_t completed = 0;  ///< finite flows fully acknowledged
  double throughput_bps = 0;    ///< Σ delivered bytes · 8 / run duration
  double share = 0;             ///< fraction of all delivered bytes
  double jain = 1.0;            ///< Jain index over the class's flow goodputs
  // FCT distribution over the class's completed finite flows (seconds).
  double fct_p50_s = 0;
  double fct_p95_s = 0;
  double fct_p99_s = 0;
  double fct_mean_s = 0;
  // FCT slowdown vs an empty path (bytes·8/BW + RTT); mice-harm headline.
  double slowdown_p50 = 0;
  double slowdown_p95 = 0;
  double slowdown_p99 = 0;
};

/// Aggregate outcome of one run (one repetition of one configuration).
struct ExperimentResult {
  ExperimentConfig config;
  std::vector<FlowResult> flows;
  std::vector<ClassResult> classes;  ///< per-class aggregates (workload runs only)
  std::uint32_t n_flows = 0;       ///< flows actually instantiated (== flows.size())

  double sender_bps[2] = {0, 0};   ///< per-sender aggregate throughput (S1, S2)
  double jain2 = 1.0;              ///< per-sender Jain index (Eq. 2, n = 2)
  double utilization = 0;          ///< φ (Eq. 3)
  std::uint64_t retx_segments = 0; ///< Σ retransmitted segments (Fig. 8 metric)
  std::uint64_t rtos = 0;
  aqm::QueueStats bottleneck;

  /// Fairness episodes detected during the run (empty unless
  /// config.episodes.enabled; see obs/episode.hpp).
  std::vector<obs::Episode> episodes;

  std::uint64_t events_executed = 0;
  double wall_seconds = 0;
};

/// Repetition-averaged view (the paper averages 5 runs per configuration).
struct AveragedResult {
  ExperimentConfig config;
  int repetitions = 0;
  double sender_bps[2] = {0, 0};
  double jain2 = 1.0;
  double utilization = 0;
  double retx_segments = 0;
  double rtos = 0;
  /// Per-class aggregates averaged across repetitions (matched by index;
  /// every repetition runs the same WorkloadSpec).
  std::vector<ClassResult> classes;

  /// Episode summary across repetitions (zero/empty when detection is off or
  /// nothing fired): mean count per repetition, and the worst episode seen in
  /// any repetition (minimum windowed Jain, with its victim and cause tag).
  double episodes = 0;
  double episode_worst_jain = 1.0;
  double episode_worst_t_s = 0;
  std::uint32_t episode_victim = 0;
  std::string episode_cause;
};

/// Execute one configuration once (seed taken from the config).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// One run's sweep-level aggregates: the journaled view of a run, an
/// AveragedResult with `repetitions == 1`.
[[nodiscard]] AveragedResult summarize(const ExperimentResult& run);

/// Average per-run summaries, summed in the given (seed) order. The one fold
/// behind run_averaged and the sweep's per-cell records.
[[nodiscard]] AveragedResult average(const ExperimentConfig& cfg,
                                     const std::vector<AveragedResult>& runs);

/// Simulate `reps` repetitions (repetition r runs seed
/// sim::derive_seed(cfg.seed, r)) and average them. Throws
/// std::invalid_argument when reps < 1.
[[nodiscard]] AveragedResult run_averaged(const ExperimentConfig& cfg, int reps);

}  // namespace elephant::exp

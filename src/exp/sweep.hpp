#pragma once

#include <atomic>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "exp/status.hpp"

namespace elephant::obs {
class MetricsRegistry;
}

namespace elephant::exp {

/// Cartesian experiment matrix builder. With the paper's axes this yields
/// the full 810-configuration grid of Table 1.
[[nodiscard]] std::vector<ExperimentConfig> make_matrix(
    const std::vector<std::pair<cca::CcaKind, cca::CcaKind>>& pairs,
    const std::vector<aqm::AqmKind>& aqms, const std::vector<double>& buffer_bdps,
    const std::vector<double>& bandwidths, std::uint64_t seed = 42);

/// The full paper matrix (9 pairs × 3 AQMs × 6 buffers × 5 bandwidths).
[[nodiscard]] std::vector<ExperimentConfig> paper_matrix(std::uint64_t seed = 42);

/// Outcome of one sweep cell. `result` is meaningful only when
/// `succeeded(status)`; otherwise `error` carries the exception text of the
/// final attempt.
struct RunRecord {
  RunStatus status = RunStatus::kOk;
  int attempts = 0;    ///< simulation attempts actually made (0 if resumed)
  bool resumed = false;  ///< satisfied from the manifest, not re-run
  double wall_s = 0;   ///< wall seconds this worker spent on the cell (0 if resumed)
  std::string error;
  AveragedResult result;

  [[nodiscard]] bool success() const { return succeeded(status); }
};

struct SweepReport {
  std::vector<RunRecord> records;  ///< one per config, input order

  [[nodiscard]] std::size_t count(RunStatus s) const;
  [[nodiscard]] std::size_t completed() const;  ///< ok + retried
  [[nodiscard]] std::size_t failed() const;     ///< failed + timed out
  [[nodiscard]] std::size_t skipped() const;    ///< never attempted (drained)
};

/// Deterministic retry backoff: base · 2^(attempt-1) · U with U ∈ [0.5, 1.5)
/// derived from sim::derive_seed(seed, 0x300000000 + attempt) — the jitter is
/// a pure function of (cell seed, attempt), so re-running a sweep reproduces
/// its retry schedule exactly while distinct cells still decorrelate.
/// `attempt` is 1-based (the first retry); returns 0 when base_s <= 0.
[[nodiscard]] double retry_backoff_s(std::uint64_t seed, int attempt, double base_s);

struct SweepOptions {
  int repetitions = 1;
  int threads = 0;  ///< 0 → hardware concurrency
  bool use_cache = true;
  /// Extra simulation attempts (with a reseeded RNG) after a failure before
  /// the cell is recorded as failed. 0 disables retry.
  int max_retries = 0;
  /// Per-run watchdog budgets, applied to every cell (0 = unlimited). A run
  /// that trips either budget is recorded as timed out, never retried.
  std::uint64_t run_event_budget = 0;
  double run_wall_budget_seconds = 0;
  /// Append-only JSONL journal of cell outcomes. Empty path disables it.
  /// A manifest makes the sweep a leased work queue (see work_queue.hpp):
  /// cells are claimed through the journal, so any number of sweep
  /// processes can share one manifest and a killed worker costs at most its
  /// in-flight cells (stolen after lease_s).
  std::filesystem::path manifest_path;
  /// Satisfy cells whose id already has a *successful* manifest entry from
  /// the journal instead of re-running them. Requires manifest_path.
  bool resume = false;
  /// Unique id of this worker process; "" derives "pid<pid>".
  std::string worker_id;
  /// Lease duration in seconds; must be > 0 when a manifest is set.
  double lease_s = 60;
  /// First-retry backoff delay (doubles per further attempt, with
  /// deterministic jitter — see retry_backoff_s). 0 retries immediately.
  double backoff_base_s = 0.25;
  /// Graceful drain flag (e.g. set from a SIGTERM handler): when it becomes
  /// true, workers finish and journal their in-flight cells, claim nothing
  /// further, and return; unattempted cells are reported as kSkipped.
  const std::atomic<bool>* cancel = nullptr;
  /// Called after each config completes (from the submitting thread; order
  /// is not guaranteed); `done`/`total` enable progress reporting.
  std::function<void(const AveragedResult&, std::size_t done, std::size_t total)> on_result;

  /// Shared telemetry registry for the whole sweep (see obs/metrics.hpp).
  /// Each cell simulates against its own thread-local registry, merged into
  /// this one when the cell finishes — workers never contend and histograms
  /// stay single-writer. On top of the per-run metrics the sweep adds
  /// sweep.cells_{done,failed,resumed}, sweep.retries, sweep.cache_{hits,
  /// misses}, and a sweep.cell_wall_s histogram. Null with stats_interval_s
  /// > 0 provisions an internal registry for the heartbeat's lifetime.
  obs::MetricsRegistry* metrics = nullptr;
  /// Wall-clock self-profiling period: > 0 runs a heartbeat thread that
  /// appends one JSON snapshot per tick to `metrics_path` and prints
  /// progress (cells done/total, ETA, current cell, event rate) to stderr.
  /// 0 (default) disables the heartbeat.
  double stats_interval_s = 0;
  /// Heartbeat JSONL destination. Empty → "metrics.jsonl" next to the
  /// manifest, or in the working directory when there is no manifest.
  std::filesystem::path metrics_path;
};

/// Run a batch of configurations, optionally in parallel (each run owns its
/// scheduler and RNG, so runs are embarrassingly parallel), with per-cell
/// fault isolation: a throwing or budget-tripping run marks its own record
/// and the sweep carries on. Records are returned in input order.
[[nodiscard]] SweepReport run_sweep_resilient(const std::vector<ExperimentConfig>& configs,
                                              const SweepOptions& options = {});

}  // namespace elephant::exp

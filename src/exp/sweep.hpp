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

/// Outcome of one sweep cell: the fold of its `repetitions` runs. `result`
/// is meaningful only when `succeeded(status)`; otherwise `error` carries the
/// exception text of the worst run.
struct RunRecord {
  RunStatus status = RunStatus::kOk;  ///< the worst status among the cell's runs
  int attempts = 0;    ///< runs simulated here (one attempt each; 0 if served)
  bool resumed = false;  ///< every run satisfied from the journal, none re-run
  double wall_s = 0;   ///< wall seconds the sweep spent on the cell's runs
  std::string error;
  AveragedResult result;

  [[nodiscard]] bool success() const { return succeeded(status); }
};

struct SweepReport {
  std::vector<RunRecord> records;  ///< one per config, input order

  [[nodiscard]] std::size_t count(RunStatus s) const;
  [[nodiscard]] std::size_t completed() const;  ///< ok
  [[nodiscard]] std::size_t failed() const;     ///< failed + timed out
  [[nodiscard]] std::size_t skipped() const;    ///< never attempted (drained)
};

struct SweepOptions {
  /// Runs per cell; must be >= 1. Run r of a cell simulates seed
  /// sim::derive_seed(cell seed, r) and is the unit of work: budgets and
  /// journal lines each apply to one run, and each run is simulated once per
  /// sweep, at its own seed.
  int repetitions = 1;
  int threads = 0;  ///< 0 → hardware concurrency
  /// Per-run watchdog budgets, applied to every run (0 = unlimited). A run
  /// that trips either budget is recorded as timed out.
  std::uint64_t run_event_budget = 0;
  double run_wall_budget_seconds = 0;
  /// Append-only JSONL journal of run outcomes, one line per simulated run;
  /// the only result store, and required. The sweep holds an exclusive lock
  /// on it while it runs (a second sweep on it throws), and a killed sweep
  /// costs at most its in-flight runs.
  std::filesystem::path manifest_path;
  /// Read the journal once at start-up and serve runs whose id already has a
  /// *successful* line from it instead of re-running them; a journaled
  /// failure is attempted again, at the run's own seed.
  bool resume = false;
  /// Graceful drain flag (e.g. set from a SIGTERM handler): when it becomes
  /// true, threads finish and journal their in-flight runs, start nothing
  /// further, and return; a cell with an unattempted run is kSkipped.
  const std::atomic<bool>* cancel = nullptr;
  /// Called once per cell when the sweep finishes its last outstanding run
  /// (order is not guaranteed; cells served wholly from the journal are not
  /// reported); `done`/`total` count cells and enable progress reporting.
  std::function<void(const AveragedResult&, std::size_t done, std::size_t total)> on_result;

  /// Shared telemetry registry for the whole sweep (see obs/metrics.hpp).
  /// Each run simulates against its own thread-local registry, merged into
  /// this one when the run finishes — threads never contend and histograms
  /// stay single-writer. On top of the per-run metrics the sweep adds
  /// sweep.cells_{done,failed,resumed} and a sweep.cell_wall_s histogram,
  /// all counting units of work (one run each; a cell at reps 1). Null with
  /// stats_interval_s > 0 provisions an internal registry for the
  /// heartbeat's lifetime.
  obs::MetricsRegistry* metrics = nullptr;
  /// Wall-clock self-profiling period: > 0 runs a heartbeat thread that
  /// appends one JSON snapshot per tick to `metrics_path` and prints
  /// progress (cells done/total, ETA, current cell, event rate) to stderr.
  /// 0 (default) disables the heartbeat.
  double stats_interval_s = 0;
  /// Heartbeat JSONL destination. Empty → "metrics.jsonl" next to the
  /// manifest.
  std::filesystem::path metrics_path;
};

/// Run a batch of configurations, `repetitions` runs each, optionally in
/// parallel, with per-run fault isolation: a throwing or budget-tripping run
/// marks its own record and the sweep carries on. Run r of cell i is
/// journaled under its own config id at index i·reps + r. Records are one
/// per cell, in input order; a cell's result is bit-identical to
/// run_averaged(cfg, reps). Throws std::invalid_argument when reps < 1,
/// when manifest_path is empty or when two runs share an id (a config listed
/// twice), and std::runtime_error when the journal cannot be opened, is in
/// use by another sweep, holds a refused line, or an append to it failed.
[[nodiscard]] SweepReport run_sweep_resilient(const std::vector<ExperimentConfig>& configs,
                                              const SweepOptions& options = {});

/// The shared run journal for sweeps without --manifest and for the claims
/// ledger: $ELEPHANT_RESULTS_DIR/runs.jsonl (default results/runs.jsonl).
[[nodiscard]] std::filesystem::path default_journal_path();

}  // namespace elephant::exp

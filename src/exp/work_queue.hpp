#pragma once

#include <sys/types.h>

#include <cstddef>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/manifest.hpp"

namespace elephant::obs {
class MetricsRegistry;
}

namespace elephant::exp {

/// Crash-tolerant shared work queue over one sweep manifest, usable by any
/// number of `elephant sweep` processes (and threads within them) attacking
/// the same cell list on one host.
///
/// Protocol (all journal writes under the manifest's flock + fsync):
///  - claim:    append a kClaimed line {id, worker, lease_until = now+lease}.
///              Eligible cells are those with no recorded success, no live
///              lease, and no terminal outcome from the current run.
///  - renew:    a background thread re-appends the claim with a fresh expiry
///              every lease/3 while the cell runs, so a slow cell is never
///              mistaken for a dead worker's.
///  - steal:    a claim whose lease_until has passed is treated as unclaimed;
///              the next claimer takes it over (the dead-worker path).
///  - complete: append the terminal entry. Under the lock the tail is
///              re-read first; if another worker's success already landed
///              (a lease was stolen from a live-but-slow worker and both
///              finished) the duplicate is dropped, so every cell gets
///              exactly one completion line per converged sweep.
///
/// Every line is one run (reps 1). A success line for one of this queue's
/// ids whose `reps` is not 1 (a per-cell multi-rep line from an older
/// build, or a made-up `reps:0` result) would be served as that id's run, so
/// the queue refuses it: healthy() turns false and error() names the line.
///
/// Resume semantics: with `resume`, the journal is folded from the start —
/// prior successes are done (fetch them via latest()), prior failures are
/// retryable, live claims are honored. Without `resume` the fold starts at
/// the current end of file, so pre-existing records are invisible (today's
/// "re-run everything" behavior) while concurrently started workers still
/// coordinate. Multi-worker invocations should therefore pass --resume; a
/// late-joining worker without it would re-run cells finished before it
/// started.
class LeasedWorkQueue {
 public:
  struct Options {
    std::string worker_id;  ///< must be unique per live worker process
    double lease_s = 60;
    bool resume = false;
    /// Optional telemetry: sweep.leases_{acquired,renewed,stolen,released},
    /// sweep.completions_dropped counters and the sweep.leases_held gauge.
    obs::MetricsRegistry* metrics = nullptr;
  };

  enum class Claim {
    kClaimed,     ///< *index holds the claimed cell; run it, then complete()
    kWaitLeased,  ///< nothing claimable now, but other workers' live leases remain — poll
    kAllDone,     ///< nothing left for this worker: every cell is done or leased by it
  };

  /// `cells` is the sweep's (config index, config id) list in run order.
  LeasedWorkQueue(std::filesystem::path manifest_path,
                  std::vector<std::pair<std::size_t, std::string>> cells,
                  Options options);
  ~LeasedWorkQueue();

  LeasedWorkQueue(const LeasedWorkQueue&) = delete;
  LeasedWorkQueue& operator=(const LeasedWorkQueue&) = delete;

  /// Try to lease the first eligible cell (sweep order). Thread-safe.
  [[nodiscard]] Claim try_claim(std::size_t* index);

  /// Journal a terminal outcome for a cell this worker leased. Returns false
  /// if the completion was dropped because another worker's success already
  /// landed (the caller's result is identical by determinism — not an error).
  bool complete(const ManifestEntry& e);

  /// Expire all leases this worker still holds (appends zero-expiry claims)
  /// so other workers can take the cells over immediately. Used on abort
  /// paths; a graceful drain finishes its cells and has nothing to release.
  void release_all();

  /// Re-fold any journal lines other workers appended since the last claim,
  /// so latest() reflects the freshest cross-worker state.
  void refresh();

  /// Latest journal view of one cell (claims folded, success terminal).
  /// Includes prior entries only under resume. Null if never recorded.
  [[nodiscard]] std::optional<ManifestEntry> latest(const std::string& id) const;

  [[nodiscard]] const std::string& worker_id() const { return options_.worker_id; }
  /// Manifest still writable (claims/completions are landing durably) and
  /// no refused line folded.
  [[nodiscard]] bool healthy() const;
  /// Why the queue is unhealthy ("" while healthy()).
  [[nodiscard]] std::string error() const;

 private:
  enum class Phase { kUnclaimed, kLeased, kDone };
  struct CellState {
    Phase phase = Phase::kUnclaimed;
    bool success = false;
    std::string worker;      ///< current lease holder (kLeased)
    double lease_until = 0;  ///< unix seconds (kLeased)
  };

  /// Fold journal lines appended since the cursor into the cell states.
  /// Caller holds mu_ and the manifest ScopedLock. `startup` applies the
  /// resume rule (failures retryable) to the initial snapshot.
  void fold_new_locked(bool startup);
  void apply_locked(const ManifestEntry& e, bool startup);
  /// 1-based line number of the journal line starting at byte `offset`.
  [[nodiscard]] std::size_t line_number_at(off_t offset) const;
  /// This worker's claim line on `slot`, leased until `lease_until`.
  [[nodiscard]] ManifestEntry claim_entry(std::size_t slot, double lease_until) const;
  void renew_loop();
  void publish_held_locked();

  SweepManifest manifest_;
  Options options_;
  std::vector<std::pair<std::size_t, std::string>> cells_;
  std::unordered_map<std::string, std::size_t> slot_by_id_;  ///< id → cells_ index

  mutable std::mutex mu_;
  std::vector<CellState> state_;                      ///< parallel to cells_
  std::unordered_map<std::string, ManifestEntry> latest_;
  off_t cursor_ = 0;  ///< next unread journal byte (complete lines only)
  std::string refused_;  ///< first refused line's message ("" = none)
  std::set<std::size_t> held_;  ///< cells_ slots this worker currently leases

  std::condition_variable renew_cv_;
  bool stopping_ = false;
  std::thread renewer_;
};

}  // namespace elephant::exp

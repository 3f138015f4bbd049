#pragma once

#include <filesystem>
#include <mutex>
#include <string>

#include "exp/runner.hpp"
#include "exp/status.hpp"

namespace elephant::exp {

/// One journal line: the recorded outcome of one (config, seed) run, or —
/// when `status == RunStatus::kClaimed` — a worker's lease on a run it is
/// about to execute (see work_queue.hpp for the lease protocol). The journal
/// is the only result store: resume serves a run from its success line.
struct ManifestEntry {
  std::size_t index = 0;  ///< run position in the sweep: cell · reps + rep
  std::string id;         ///< ExperimentConfig::id() — the resume key
  RunStatus status = RunStatus::kOk;
  int attempts = 1;
  /// The run's sweep-level aggregates (`summarize`; a success line carries
  /// `repetitions == 1`); `config` and per-flow detail are not journaled. The per-class block is written only for mixed-workload cells
  /// and the episode block only when `episodes > 0`, so elephant-only,
  /// detection-off lines keep the earlier journal format byte for byte.
  /// Claim lines carry these fields too and have always written them as
  /// zeros, hence `jain2 = 0` here where AveragedResult defaults to 1.
  AveragedResult result = [] {
    AveragedResult r;
    r.jain2 = 0;
    return r;
  }();
  /// Wall seconds the executing worker spent on the run. Serialized only
  /// when > 0, so journal lines from resumed runs (and pre-profiler
  /// builds) keep their exact prior format.
  double wall_s = 0;
  std::string error;  ///< exception message for failed/timed-out runs

  // Lease fields, serialized only on kClaimed lines so completion lines keep
  // their exact pre-lease format. `lease_until_unix_s` is wall-clock time
  // (system_clock seconds): leases arbitrate between processes on one host,
  // so a shared clock is exactly what expiry must be measured against.
  std::string worker;              ///< claiming worker's id
  double lease_until_unix_s = 0;   ///< lease expiry; <= now means stealable

  [[nodiscard]] bool success() const { return succeeded(status); }
  [[nodiscard]] bool terminal() const { return status != RunStatus::kClaimed; }
};

/// Append-only JSONL journal of a sweep: one line per claim or completed
/// run. Appends go through a raw O_APPEND fd under an flock + fsync, so
/// multiple worker *processes* can interleave whole lines on one journal and
/// a crashed or killed worker loses at most the line in flight. The journal
/// is folded back by LeasedWorkQueue (work_queue.hpp), the only reader that
/// resumes from it.
///
/// Unlike the pre-lease implementation, write failures are detected: a
/// failed append (disk full, journal unlinked, ...) latches ok() to false
/// and keeps the first error message, so the sweep can fail loudly instead
/// of recording ghost completions.
class SweepManifest {
 public:
  /// Opens `path` for appending (parent directories are created).
  explicit SweepManifest(std::filesystem::path path);
  ~SweepManifest();

  SweepManifest(const SweepManifest&) = delete;
  SweepManifest& operator=(const SweepManifest&) = delete;

  /// Parse one journal line; false on torn/malformed input.
  [[nodiscard]] static bool parse_line(const std::string& line, ManifestEntry* out);
  /// Serialize one entry as a single JSON object line (no trailing newline).
  [[nodiscard]] static std::string format_line(const ManifestEntry& e);

  /// Cross-process critical section: in-process mutex + flock(LOCK_EX) on
  /// the journal fd. Used by the work queue to make read-tail + append-claim
  /// atomic against concurrent workers.
  class ScopedLock {
   public:
    explicit ScopedLock(SweepManifest& m);
    ~ScopedLock();
    ScopedLock(const ScopedLock&) = delete;
    ScopedLock& operator=(const ScopedLock&) = delete;

   private:
    SweepManifest& m_;
  };

  /// Append one entry; the caller holds a ScopedLock. Returns false on
  /// write failure, which also latches ok() false. Repairs a torn tail (a
  /// crashed writer's partial line gets a terminating newline) before
  /// writing, so journal lines can never merge across crashes.
  bool append_locked(const ManifestEntry& e);

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// True while the journal is open and no append has failed.
  [[nodiscard]] bool ok() const;
  /// First failure message ("" while ok()).
  [[nodiscard]] std::string last_error() const;
  /// Underlying fd for readers that must share the flock (work queue).
  [[nodiscard]] int fd() const { return fd_; }

 private:
  void fail(const std::string& what);

  std::filesystem::path path_;
  int fd_ = -1;
  mutable std::mutex mu_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace elephant::exp

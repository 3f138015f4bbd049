#pragma once

#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/status.hpp"

namespace elephant::exp {

/// One journal line: the recorded outcome of one (config, seed) run. The
/// journal is the only result store: resume serves a run from its success
/// line.
struct ManifestEntry {
  std::size_t index = 0;  ///< run position in the sweep: cell · reps + rep
  std::string id;         ///< ExperimentConfig::id() — the resume key
  RunStatus status = RunStatus::kOk;
  int attempts = 1;
  /// The run's sweep-level aggregates (`summarize`; a success line carries
  /// `repetitions == 1`); `config` and per-flow detail are not journaled. The
  /// per-class block is written only for mixed-workload cells and the
  /// episode block only when `episodes > 0`, so elephant-only, detection-off
  /// lines keep the earlier journal format byte for byte.
  AveragedResult result;
  /// Wall seconds the sweep spent on the run. Serialized only when > 0, so
  /// journal lines from resumed runs (and pre-profiler builds) keep their
  /// exact prior format.
  double wall_s = 0;
  std::string error;  ///< exception message for failed/timed-out runs

  [[nodiscard]] bool success() const { return succeeded(status); }
};

/// Append-only JSONL journal of a sweep, one line per simulated run, with one
/// writer: the constructor takes an exclusive flock(LOCK_NB) on the file and
/// holds it until destruction, so a second sweep on a journal in use is
/// refused (ok() false, the error names the journal) instead of interleaving
/// its lines. Each append is one write(2) of a whole line plus an fsync, so a
/// killed sweep loses at most the line in flight; the constructor gives a
/// torn last line its newline, so it parses as one skipped line.
///
/// Write failures are detected: a failed append (disk full, journal
/// unlinked, ...) latches ok() to false and keeps the first error message, so
/// the sweep can fail loudly instead of recording ghost completions.
class SweepManifest {
 public:
  /// Opens and locks `path` for appending (parent directories are created).
  explicit SweepManifest(std::filesystem::path path);
  ~SweepManifest();

  SweepManifest(const SweepManifest&) = delete;
  SweepManifest& operator=(const SweepManifest&) = delete;

  /// Parse one journal line; false on torn/malformed input, and on the
  /// claim lines older builds wrote (their status is no longer one).
  [[nodiscard]] static bool parse_line(const std::string& line, ManifestEntry* out);
  /// Serialize one entry as a single JSON object line (no trailing newline).
  [[nodiscard]] static std::string format_line(const ManifestEntry& e);

  /// Resume's one pass over the journal: `(*latest)[k]` becomes the latest
  /// line for `ids[k]` (nullopt if none), except that a success is never
  /// replaced by a later failure. Unparseable lines are skipped. Returns
  /// false, with *error naming the line, at a success line for one of `ids`
  /// whose `reps` is not 1: served as that id's run it would pass a
  /// multi-run mean (or a made-up reps:0 result) off as one seed's numbers.
  [[nodiscard]] bool read_runs(const std::vector<std::string>& ids,
                               std::vector<std::optional<ManifestEntry>>* latest,
                               std::string* error) const;

  /// Append one entry; thread-safe. Returns false on write failure, which
  /// also latches ok() false.
  bool append(const ManifestEntry& e);

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// True while the journal is open and locked and no append has failed.
  [[nodiscard]] bool ok() const;
  /// First failure message ("" while ok()).
  [[nodiscard]] std::string last_error() const;

 private:
  void fail(const std::string& what);

  std::filesystem::path path_;
  int fd_ = -1;
  mutable std::mutex mu_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace elephant::exp

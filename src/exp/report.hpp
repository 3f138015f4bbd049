#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace elephant::exp {

/// Inputs to `elephant report`: the sweep manifest (required) plus the
/// per-worker heartbeat journals. An empty `metrics_paths` auto-discovers
/// every `metrics*.jsonl` sitting next to the manifest.
struct ReportOptions {
  std::filesystem::path manifest_path;
  std::vector<std::filesystem::path> metrics_paths;
  std::size_t top_n = 10;  ///< rows in the slowest/episode rankings
};

/// Per-worker attribution, reconstructed from the manifest's claim lines and
/// (when a metrics journal is found) that worker's final heartbeat snapshot.
struct ReportWorker {
  std::string id;
  std::size_t cells = 0;   ///< successful completions attributed to this worker
  std::size_t claims = 0;  ///< claim lines journaled by this worker
  std::size_t steals = 0;  ///< claims taken over from another live holder
  double wall_s = 0;       ///< Σ journaled cell wall time
  double elapsed_s = 0;    ///< heartbeat elapsed (0 when no journal matched)
  double utilization = 0;  ///< wall_s / elapsed_s (0 when elapsed unknown)
};

/// One merged profiler phase (prof.* histograms folded across every journal).
struct ReportPhase {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double mean_s = 0;
};

/// One cell row in the slowest / most-unfair rankings.
struct ReportCellRow {
  std::string id;
  std::string worker;
  std::string status;
  double wall_s = 0;
  double episodes = 0;       ///< mean episode count per repetition
  double worst_jain = 1.0;   ///< worst windowed Jain across the cell's episodes
  std::uint32_t victim = 0;  ///< victim flow id at the worst window
  std::string cause;         ///< dominant-cause tag of the worst episode
};

/// The merged forensics view of one (possibly multi-worker) sweep: manifest
/// line history + per-worker metrics journals + per-cell episode summaries,
/// rendered as `elephant-report-v2` JSON or human markdown.
struct SweepSummary {
  std::string manifest;
  std::size_t cells_total = 0;  ///< distinct ids with a terminal journal line
  std::size_t completed = 0;    ///< ok (latest terminal per id)
  std::size_t failed = 0;       ///< failed + timed out
  std::size_t claims = 0;       ///< total claim lines
  std::size_t steals = 0;       ///< lease takeovers
  double wall_s_total = 0;  ///< Σ journaled cell wall time, all workers
  std::vector<ReportWorker> workers;
  std::vector<ReportPhase> phases;          ///< prof.* + sweep.cell_wall_s
  std::vector<ReportCellRow> slowest;       ///< by wall_s, descending
  std::vector<ReportCellRow> episode_cells; ///< by worst_jain, ascending
};

/// Merge the sweep artifacts into one summary. Returns false (with a message
/// in *error) when the manifest is unreadable or contains no parseable line;
/// missing or torn metrics journals degrade gracefully (their fields stay 0).
[[nodiscard]] bool build_report(const ReportOptions& opt, SweepSummary* out,
                                std::string* error);

/// Serialize as the machine-readable `elephant-report-v2` JSON document.
[[nodiscard]] std::string render_report_json(const SweepSummary& r);

/// Render the human-readable markdown companion.
[[nodiscard]] std::string render_report_markdown(const SweepSummary& r);

}  // namespace elephant::exp

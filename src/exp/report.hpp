#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace elephant::exp {

/// Inputs to `elephant report`: the sweep manifest (required) plus the
/// sweep's heartbeat journal. An empty `metrics_path` reads `metrics.jsonl`
/// next to the manifest.
struct ReportOptions {
  std::filesystem::path manifest_path;
  std::filesystem::path metrics_path;
  std::size_t top_n = 10;  ///< rows in the slowest/episode rankings
};

/// One profiler phase (a prof.* histogram, or sweep.cell_wall_s).
struct ReportPhase {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double mean_s = 0;
};

/// One cell row in the slowest / most-unfair rankings.
struct ReportCellRow {
  std::string id;
  std::string status;
  double wall_s = 0;
  double episodes = 0;       ///< mean episode count per repetition
  double worst_jain = 1.0;   ///< worst windowed Jain across the cell's episodes
  std::uint32_t victim = 0;  ///< victim flow id at the worst window
  std::string cause;         ///< dominant-cause tag of the worst episode
};

/// The forensics view of one sweep: manifest lines + the heartbeat journal +
/// per-cell episode summaries, rendered as `elephant-report-v3` JSON or human
/// markdown.
struct SweepSummary {
  std::string manifest;
  std::size_t cells_total = 0;  ///< distinct ids with a journal line
  std::size_t completed = 0;    ///< ok (latest line per id)
  std::size_t failed = 0;       ///< failed + timed out
  double wall_s_total = 0;      ///< Σ journaled cell wall time of completed cells
  std::vector<ReportPhase> phases;          ///< prof.* + sweep.cell_wall_s
  std::vector<ReportCellRow> slowest;       ///< by wall_s, descending
  std::vector<ReportCellRow> episode_cells; ///< by worst_jain, ascending
};

/// Merge the sweep artifacts into one summary. Returns false (with a message
/// in *error) when the manifest is unreadable or contains no parseable line;
/// a missing or torn metrics journal degrades gracefully (no phases).
[[nodiscard]] bool build_report(const ReportOptions& opt, SweepSummary* out,
                                std::string* error);

/// Serialize as the machine-readable `elephant-report-v3` JSON document.
[[nodiscard]] std::string render_report_json(const SweepSummary& r);

/// Render the human-readable markdown companion.
[[nodiscard]] std::string render_report_markdown(const SweepSummary& r);

}  // namespace elephant::exp

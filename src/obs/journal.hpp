#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"

namespace elephant::obs {

/// One parsed heartbeat line: the caller status fields we care about plus
/// the full registry snapshot, with histograms reconstructed bucket-for-bucket
/// from the sparse dump the exporter writes. This is the C++ half of the
/// metrics.jsonl round trip — `tools/check_metrics_jsonl.py` checks shape,
/// this checks semantics (and feeds `elephant report`).
struct JournalSnapshot {
  double elapsed_s = 0;
  bool final_snapshot = false;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LogLinHistogram> histograms;
  /// Top-level numeric caller fields (e.g. "cells_done") not covered above.
  std::map<std::string, double> extra;
};

/// Parse one JSONL heartbeat line. Returns false on malformed input (the
/// snapshot may be partially filled). Histograms written before the sparse
/// bucket dump existed reconstruct lossily as `count` observations at the
/// recorded mean.
[[nodiscard]] bool parse_journal_line(std::string_view line, JournalSnapshot* out);

/// Read a journal file and return its last parseable line, final or not,
/// skipping a torn tail. The heartbeat appends, so a resumed sweep's newer
/// tick supersedes an older run's `"final":true` line. Returns false (with a
/// message in *error if non-null) when the file is unreadable or no line
/// parses.
[[nodiscard]] bool read_final_snapshot(const std::filesystem::path& path,
                                       JournalSnapshot* out, std::string* error);

}  // namespace elephant::obs

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/choice.hpp"

namespace elephant::mc {

/// One consumed choice point: what kind of decision it was, how many
/// branches were available, and which one the schedule took. A run's full
/// sequence of these is the schedule — deterministic execution plus the
/// sequence reproduces the run exactly.
struct ChoiceRec {
  sim::ChoiceKind kind = sim::ChoiceKind::kSchedulerTie;
  std::uint32_t n_branches = 0;
  std::uint32_t chosen = 0;
};

/// A replayable counterexample: the violated oracle, the parameters the
/// schedule ran under, the end-state hash the replay must land on, and the
/// complete choice sequence.
///
/// Serialized as a line-oriented text file:
///
///   elephant-choice-trace v3
///   config <ExperimentConfig::id()>
///   oracle <name>              (empty for a clean-schedule trace)
///   detail <free text, one line>
///   at_s <sim seconds of the detection>
///   state_hash <16 hex digits>
///   horizon_s <replay horizon; 0 = configured duration>
///   window_s <starvation probe window; 0 = oracle off>
///   jain_floor <0 = oracle off>
///   retx_storm <segments per window; 0 = oracle off>
///   max_events <per-schedule event budget; 0 = unbounded>
///   choices <N>
///   <kind> <n_branches> <chosen>      (N rows, kind numeric per ChoiceKind)
///
/// The config line is an identity echo: replay refuses to run against a
/// different cell than the one that produced the trace. The parser is
/// strict: every number must be exactly one number, the row count must be
/// exact, and a v1 or v2 file (older serialized-state layout or choice
/// catalog, so its state_hash can never match) is rejected as such.
struct ChoiceTrace {
  std::string config_id;
  std::string oracle;
  std::string detail;
  double at_s = 0;
  std::uint64_t state_hash = 0;

  // Schedule/oracle parameters, stored so a replay re-runs the exact same
  // bounded window with the exact same detectors armed.
  double horizon_s = 0;
  double window_s = 0;
  double jain_floor = 0;
  std::uint64_t retx_storm_segments = 0;
  std::uint64_t max_schedule_events = 0;

  std::vector<ChoiceRec> choices;

  [[nodiscard]] std::string serialize() const;
  /// Parse the serialized form; on failure returns false and sets *error.
  static bool parse(const std::string& text, ChoiceTrace* out, std::string* error);

  [[nodiscard]] bool write_file(const std::string& path) const;
  static bool read_file(const std::string& path, ChoiceTrace* out, std::string* error);
};

}  // namespace elephant::mc

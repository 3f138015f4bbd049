#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "mc/choice_trace.hpp"

namespace elephant::trace {
class Tracer;
}

namespace elephant::mc {

/// Bounds and oracle thresholds for one exploration (all oracles optional;
/// 0 disables). `max_depth` is the number of choice points eligible for
/// branching: a schedule may pass thousands of choice points, but only the
/// first `max_depth` of them seed alternative schedules — the classic
/// depth-bounded systematic-testing cut.
struct ExplorerOptions {
  std::uint32_t max_depth = 16;
  std::uint64_t max_schedules = 256;
  /// Executed-event budget per schedule (runaway protection; a schedule
  /// stopped by it is counted as truncated but still hashed and checked).
  std::uint64_t max_schedule_events = 0;
  /// Simulated horizon each schedule runs to; 0 = the configured duration.
  double horizon_s = 0;

  /// Fairness floor on the per-sender Jain index at the horizon.
  double jain_floor = 0;
  /// A started, unfinished flow delivering zero new bytes over one full
  /// window of this length is starved.
  double starvation_window_s = 0;
  /// A flow retransmitting at least this many segments within one probe
  /// window is a retransmit storm.
  std::uint64_t retx_storm_segments = 0;

  /// When non-empty, the first counterexample's choice trace is written here.
  std::string trace_out;
};

/// One oracle violation and the schedule that produced it, replayable via
/// Explorer::replay().
struct Violation {
  std::string oracle;  ///< "invariant", "jain_floor", "starvation", "retx_storm"
  std::string detail;
  double at_s = 0;
  ChoiceTrace trace;
};

struct ExploreStats {
  std::uint64_t schedules_run = 0;
  std::uint64_t distinct_states = 0;   ///< unique end-state hashes
  std::uint64_t duplicate_states = 0;  ///< schedules pruned by the dedup set
  std::uint64_t truncated = 0;         ///< schedules stopped by the event budget
  std::uint64_t max_choice_points = 0; ///< longest choice sequence seen
  std::uint64_t frontier_left = 0;     ///< plans still queued when the budget hit
  std::uint64_t violations = 0;
  /// The first counterexample's trace reached ExplorerOptions::trace_out
  /// (false when no violation was found, no path was set, or the write
  /// failed).
  bool trace_written = false;
};

/// Bounded-depth systematic schedule exploration over one experiment cell.
///
/// The loop: for each queued plan, build a fresh cell (a freshly built cell
/// *is* the t = 0 state — construction is deterministic), run the schedule to
/// the horizon under the plan (recording every choice point), hash the end
/// state, and evaluate the oracles. A fresh end-state hash expands the
/// frontier — every unexplored branch of the first `max_depth` choice points
/// becomes a child plan (the recorded prefix plus one flipped branch); a
/// hash already in the dedup set prunes the subtree. DFS order, bounded by
/// `max_schedules`.
///
/// Oracles: the run invariant checker (packet/byte conservation, cwnd
/// sanity — exp::InvariantViolation), a Jain-index floor, a per-flow
/// starvation window, and a per-window retransmit-storm detector. The first
/// violation of a schedule stops that schedule and serializes its choice
/// trace (see ChoiceTrace); `elephant explore --replay` re-executes it.
class Explorer {
 public:
  Explorer(const exp::ExperimentConfig& cfg, ExplorerOptions opts);

  /// Run the exploration (callable once per Explorer).
  ExploreStats explore();

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }

  struct ReplayReport {
    bool config_matches = false;        ///< cfg.id() equals the trace's echo
    bool diverged = false;              ///< a choice point mismatched the record
    std::size_t divergence_at = 0;      ///< index of the first mismatch
    bool hash_matches = false;          ///< end-state hash equals the stored one
    bool violation_reproduced = false;  ///< same oracle fired again
    std::string oracle;                 ///< oracle observed during the replay
    std::string detail;
    double at_s = 0;
    std::uint64_t end_state_hash = 0;
    [[nodiscard]] bool ok() const {
      return config_matches && !diverged && hash_matches && violation_reproduced;
    }
  };

  /// Deterministically re-execute a stored counterexample against `cfg` in
  /// one run: the end-state hash and oracle must match the record, and a
  /// non-null `flight_recorder` captures the human-debuggable trace of the
  /// failure on that same run.
  static ReplayReport replay(const exp::ExperimentConfig& cfg, const ChoiceTrace& trace,
                             trace::Tracer* flight_recorder = nullptr);

 private:
  exp::ExperimentConfig cfg_;
  ExplorerOptions opts_;
  std::vector<Violation> violations_;
};

}  // namespace elephant::mc

#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace elephant::exp {

/// Outcome of one sweep cell under the resilient engine. kSkipped never
/// reaches the journal; it marks report slots for cells a drained sweep left
/// behind.
enum class RunStatus {
  kOk,        ///< simulated to completion
  kFailed,    ///< the attempt threw (config error, invariant violation, ...)
  kTimedOut,  ///< the attempt exceeded a watchdog budget
  kSkipped,   ///< report only: never attempted (graceful drain)
};

[[nodiscard]] inline const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kFailed:
      return "failed";
    case RunStatus::kTimedOut:
      return "timed_out";
    case RunStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

[[nodiscard]] inline bool run_status_from_string(std::string_view name, RunStatus* out) {
  for (const RunStatus s : {RunStatus::kOk, RunStatus::kFailed, RunStatus::kTimedOut}) {
    if (name == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

/// A run produced a result.
[[nodiscard]] inline bool succeeded(RunStatus s) { return s == RunStatus::kOk; }

/// Thrown by run_experiment when a watchdog budget (wall clock or executed
/// events) is exceeded — the run is killed cleanly instead of hanging its
/// sweep worker.
class RunTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the post-run invariant checker so a physically inconsistent run
/// fails loudly instead of being journaled as a valid result.
class InvariantViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace elephant::exp

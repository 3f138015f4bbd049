#pragma once

#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/runner.hpp"

namespace elephant::bench {

/// Run one configuration with the bench defaults: ELEPHANT_REPS repetitions
/// (default 1) as a one-cell sweep resumed from the shared run journal
/// (exp::default_journal_path()), so figure programs share runs and a
/// re-run simulates only what the journal lacks. Prints progress to stderr
/// so long sweeps are watchable; throws std::runtime_error if a run fails.
[[nodiscard]] exp::AveragedResult run(const exp::ExperimentConfig& cfg);

/// Banner for a reproduced figure/table, including the scaling caveats.
void print_banner(const std::string& title, const std::string& paper_claim);

/// "bbr1 vs cubic" style pair label.
[[nodiscard]] std::string pair_label(const exp::ExperimentConfig& cfg);

/// Mb/s with sensible width.
[[nodiscard]] std::string mbps(double bps);

}  // namespace elephant::bench

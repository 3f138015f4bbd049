#pragma once

#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/runner.hpp"

namespace elephant::bench {

/// Run `cfgs` as one sweep over all cores, ELEPHANT_REPS repetitions each
/// (default 1), resumed from the shared journal (exp::default_journal_path()),
/// so the bench programs share runs and a re-run simulates only what the
/// journal lacks. Prints progress to stderr. Returns results in input order;
/// throws std::runtime_error naming the first config whose run failed.
[[nodiscard]] std::vector<exp::AveragedResult> run(
    const std::vector<exp::ExperimentConfig>& cfgs);

/// Banner for a reproduced figure/table, including the scaling caveats. A
/// bad ELEPHANT_REPS or ELEPHANT_DURATION_SCALE exits 2 before it prints.
void print_banner(const std::string& title, const std::string& paper_claim);

/// "bbr1 vs cubic" style pair label.
[[nodiscard]] std::string pair_label(const exp::ExperimentConfig& cfg);

/// Mb/s with sensible width.
[[nodiscard]] std::string mbps(double bps);

}  // namespace elephant::bench

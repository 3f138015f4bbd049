#pragma once

// The paper-claims ledger: every ✅/🟡/❌ statement of EXPERIMENTS.md,
// declared once as data (its cells and a predicate over one seed's results),
// run at K seeds through the sweep journal and decided by a seed vote.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/runner.hpp"

namespace elephant::exp {

/// What one seed's results say about a claim.
struct ClaimCheck {
  bool holds = false;
  std::string values;  ///< the numbers the predicate read, formatted
};

struct Claim {
  std::string id;       ///< stable row key of results/claims.md
  std::string wording;  ///< the paper's statement, thresholds made explicit
  std::vector<ExperimentConfig> cells;
  /// The predicate over one seed: `results[i]` is `cells[i]` at that seed.
  std::function<ClaimCheck(std::span<const AveragedResult> results)> check;
};

/// Every claim in EXPERIMENTS.md order: Fig. 2–8, Table 3, then the studies
/// beyond the paper. Default cell durations follow duration_scale().
[[nodiscard]] std::vector<Claim> paper_claims();

/// A claim after its seed vote.
struct ClaimRow {
  std::string id;
  std::string wording;
  std::vector<std::string> values;  ///< one per seed, in seed order
  int held = 0;                     ///< seeds whose check holds
  int seeds = 0;

  /// ✅ when every seed holds, ❌ when none does, else 🟡 with the split.
  [[nodiscard]] std::string mark() const;
};

[[nodiscard]] ClaimRow vote(const Claim& claim, const std::vector<ClaimCheck>& per_seed);

/// results[i][r] is cells[i] at seed sim::derive_seed(cells[i].seed, r), the
/// run ids `sweep --reps` journals: one sweep resumed from
/// default_journal_path() on `threads` threads (0: all cores), so only runs
/// the journal lacks are simulated. Throws std::invalid_argument for a cell
/// listed twice and std::runtime_error naming the first failed run.
[[nodiscard]] std::vector<std::vector<AveragedResult>> run_seeds(
    const std::vector<ExperimentConfig>& cells, int reps, int threads);

/// Run the distinct cells of `claims` at `reps` seeds and vote each claim.
[[nodiscard]] std::vector<ClaimRow> run_claims(const std::vector<Claim>& claims, int reps,
                                               int threads);

/// The ledger as markdown, one table row per claim.
[[nodiscard]] std::string render_claims_markdown(const std::vector<ClaimRow>& rows, int reps);

}  // namespace elephant::exp

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace elephant::exp {

/// FNV-1a digest over the behaviorally meaningful fields of a finished run:
/// per-side throughputs, Jain index, utilization, aggregate retransmit/RTO
/// counts, the bottleneck queue counters, and every flow's throughput,
/// retransmits, RTOs and smoothed RTT (doubles by bit pattern).
///
/// events_executed and wall_seconds are deliberately excluded: the former
/// counts engine-internal timer wakeups (which may change across engine
/// versions without the simulation behaving differently), the latter is
/// wall-clock noise.
///
/// This is THE metrics digest: the golden determinism tests, the chunked-run
/// tests and `elephant run --check-digest` all fold exactly these fields in
/// exactly this order, so their values are directly comparable.
[[nodiscard]] std::uint64_t metrics_digest(const ExperimentResult& res);

/// Field-level comparison of two results over the same fields the digest
/// folds. Returns one human-readable line per differing field ("jain2:
/// 0.98… != 0.97…"), empty when the results digest equal. Used to localize
/// a --check-digest or round-trip mismatch instead of reporting two opaque
/// hashes.
[[nodiscard]] std::vector<std::string> diff_results(const ExperimentResult& a,
                                                    const ExperimentResult& b);

}  // namespace elephant::exp

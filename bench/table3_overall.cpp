// Table 3 reproduction: overall performance comparison. For every CCA pair ×
// AQM combination, averages across all buffer sizes and bandwidths of:
//   Avg(phi)      — link utilization (Eq. 3)
//   Avg(RR)       — retransmissions relative to CUBIC-vs-CUBIC (Eq. 4)
//   Avg(J_index)  — per-sender Jain fairness (Eq. 2)
// This is the full 810-cell matrix; every run is journaled in
// ./results/runs.jsonl, so the figure benches and re-runs share work.

#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "exp/config.hpp"
#include "exp/sweep.hpp"

int main() {
  using namespace elephant;
  using cca::CcaKind;

  bench::print_banner(
      "Table 3: overall performance comparison (810 configurations)",
      "BBRv1 wastes resources (huge RR, no benefit); Reno lags; CUBIC strong "
      "alone but loses head-to-head; HTCP & BBRv2 best overall, BBRv2 "
      "slightly ahead on utilization at the cost of more retransmissions; "
      "RED worst for fairness and high-BW utilization.");

  // Key: (aqm, buffer, bw) → cubic-vs-cubic retransmissions (the RR baseline).
  std::map<std::string, double> cubic_baseline;
  auto cell_key = [](const exp::ExperimentConfig& cfg) {
    return aqm::to_string(cfg.aqm) + "/" + std::to_string(cfg.buffer_bdp) + "/" +
           exp::bw_label(cfg.bottleneck_bps);
  };

  // Pass 1: the CUBIC-CUBIC baseline for every (aqm, buffer, bw) cell.
  for (const aqm::AqmKind aqm : exp::paper_aqms()) {
    for (const double bdp : exp::paper_buffer_bdps()) {
      for (const double bw : exp::paper_bandwidths()) {
        exp::ExperimentConfig cfg;
        cfg.cca1 = CcaKind::kCubic;
        cfg.cca2 = CcaKind::kCubic;
        cfg.aqm = aqm;
        cfg.buffer_bdp = bdp;
        cfg.bottleneck_bps = bw;
        const auto res = bench::run(cfg);
        cubic_baseline[cell_key(cfg)] = std::max(res.retx_segments, 1.0);
      }
    }
  }

  std::printf("\n%-16s %-9s %10s %10s %12s\n", "CCA1 vs CCA2", "AQM", "Avg(phi)",
              "Avg(RR)", "Avg(Jindex)");

  // Pass 2: every pair × AQM, averaged over the 30 (buffer, bw) cells.
  // Print in the paper's row order: per AQM, intra/inter interleaved.
  const std::pair<CcaKind, CcaKind> rows[] = {
      {CcaKind::kBbrV1, CcaKind::kBbrV1}, {CcaKind::kBbrV1, CcaKind::kCubic},
      {CcaKind::kBbrV2, CcaKind::kBbrV2}, {CcaKind::kBbrV2, CcaKind::kCubic},
      {CcaKind::kHtcp, CcaKind::kHtcp},   {CcaKind::kHtcp, CcaKind::kCubic},
      {CcaKind::kReno, CcaKind::kReno},   {CcaKind::kReno, CcaKind::kCubic},
      {CcaKind::kCubic, CcaKind::kCubic},
  };

  for (const aqm::AqmKind aqm : exp::paper_aqms()) {
    for (const auto& [c1, c2] : rows) {
      double sum_phi = 0;
      double sum_rr = 0;
      double sum_j = 0;
      int cells = 0;
      for (const double bdp : exp::paper_buffer_bdps()) {
        for (const double bw : exp::paper_bandwidths()) {
          exp::ExperimentConfig cfg;
          cfg.cca1 = c1;
          cfg.cca2 = c2;
          cfg.aqm = aqm;
          cfg.buffer_bdp = bdp;
          cfg.bottleneck_bps = bw;
          const auto res = bench::run(cfg);
          sum_phi += res.utilization;
          sum_rr += res.retx_segments / cubic_baseline[cell_key(cfg)];
          sum_j += res.jain2;
          ++cells;
        }
      }
      std::printf("%-16s %-9s %10.3f %10.3f %12.3f\n",
                  (cca::to_string(c1) + " vs " + cca::to_string(c2)).c_str(),
                  aqm::to_string(aqm).c_str(), sum_phi / cells, sum_rr / cells,
                  sum_j / cells);
    }
    std::printf("\n");
  }
  return 0;
}

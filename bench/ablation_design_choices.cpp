// Ablation bench for the design choices called out in DESIGN.md §6:
//   1. Host pacing for loss-based CCAs (off by default, like hosts without
//      sch_fq) — does pacing change CUBIC's fate against BBRv1?
//   2. ECN (off in the paper's runs) — what RED+ECN would have done.
//   3. Plain CoDel vs FQ-CoDel — how much of FQ-CoDel's fairness comes from
//      fair queuing rather than the CoDel drop law.
//   4. TSO aggregation factor — sensitivity of macroscopic results to the
//      simulation's aggregation substitution.

#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_util.hpp"
#include "exp/config.hpp"

namespace {

using namespace elephant;
using cca::CcaKind;

void report(const char* label, const exp::AveragedResult& res) {
  std::printf("  %-34s S1=%8s Mb/s  S2=%8s Mb/s  J=%6.3f  util=%6.3f  retx=%8.0f\n",
              label, bench::mbps(res.sender_bps[0]).c_str(),
              bench::mbps(res.sender_bps[1]).c_str(), res.jain2, res.utilization,
              res.retx_segments);
}

}  // namespace

int main() {
  bench::print_banner("Ablations: pacing, ECN, CoDel-vs-FQ-CoDel, aggregation",
                      "design-choice sensitivity study (not a paper figure)");

  exp::ExperimentConfig base;
  base.cca1 = CcaKind::kBbrV1;
  base.cca2 = CcaKind::kCubic;
  base.aqm = aqm::AqmKind::kFifo;
  base.buffer_bdp = 2;
  base.bottleneck_bps = 500e6;

  // The ten cells of the four studies, in print order, as one sweep.
  std::vector<exp::ExperimentConfig> cfgs(6, base);
  cfgs[1].pace_all = true;
  cfgs[2].cca1 = cfgs[3].cca1 = CcaKind::kBbrV2;
  cfgs[2].aqm = cfgs[3].aqm = aqm::AqmKind::kRed;
  cfgs[3].ecn = true;
  cfgs[4].aqm = aqm::AqmKind::kCodel;
  cfgs[5].aqm = aqm::AqmKind::kFqCodel;
  const std::uint32_t aggs[] = {1, 2, 4, 8};
  for (const std::uint32_t agg : aggs) {
    auto& cfg = cfgs.emplace_back(base);
    cfg.cca1 = CcaKind::kCubic;
    cfg.bottleneck_bps = 1e9;
    cfg.aggregation = agg;
  }
  const std::vector<exp::AveragedResult> res = bench::run(cfgs);

  std::printf("\n[1] host pacing for loss-based CCAs (bbr1 vs cubic, FIFO, 2 BDP, 500M)\n");
  report("ack-clocked (default)", res[0]);
  report("paced at 2*cwnd/srtt", res[1]);

  std::printf("\n[2] ECN with RED (bbr2 vs cubic, 2 BDP, 500M)\n");
  report("RED, ECN off (paper setup)", res[2]);
  report("RED, ECN on", res[3]);

  std::printf("\n[3] plain CoDel vs FQ-CoDel (bbr1 vs cubic, 2 BDP, 500M)\n");
  report("codel (single queue)", res[4]);
  report("fq_codel (per-flow queues)", res[5]);

  std::printf("\n[4] TSO aggregation sensitivity (cubic vs cubic, FIFO, 2 BDP, 1G)\n");
  for (std::size_t i = 0; i < std::size(aggs); ++i) {
    char label[32];
    std::snprintf(label, sizeof(label), "aggregation = %u segments", aggs[i]);
    report(label, res[6 + i]);
  }
  return 0;
}

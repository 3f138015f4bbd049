// Mixed-traffic study: how much do elephant CCA pairs hurt the mice?
//
// For each elephant CCA pair and each of the paper's three AQMs, run the
// mice-elephants workload (paper elephants + 40 staggered CUBIC mice with
// Pareto-distributed sizes) at 100 Mbps / 1 BDP and report the mice's FCT
// percentiles and slowdown next to the elephants' internal Jain index. The
// paper studies elephant-vs-elephant fairness; this sweep asks the follow-up
// question every shared link raises: which elephant mix is the worst
// neighbour for short interactive transfers, and how much does the AQM help?

#include <cstdio>

#include "bench_util.hpp"
#include "exp/config.hpp"
#include "workload/workload.hpp"

namespace {

using namespace elephant;
using cca::CcaKind;

const exp::ClassResult* find_class(const exp::AveragedResult& res, const char* name) {
  for (const exp::ClassResult& c : res.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void panel(aqm::AqmKind aqm) {
  std::printf("\nAQM = %s\n", aqm::to_string(aqm).c_str());
  std::printf("  %-16s %9s %9s %9s %9s %7s %7s\n", "elephant pair", "p50 ms", "p95 ms",
              "p99 ms", "sd p50", "done", "eJain");

  const CcaKind kinds[] = {CcaKind::kBbrV1, CcaKind::kBbrV2, CcaKind::kHtcp, CcaKind::kReno,
                           CcaKind::kCubic};
  for (const CcaKind k : kinds) {
    exp::ExperimentConfig cfg;
    cfg.cca1 = k;
    cfg.cca2 = CcaKind::kCubic;
    cfg.aqm = aqm;
    cfg.buffer_bdp = 1.0;
    // 100 Mbps keeps the cells cheap; the mice finish well inside 40 s.
    cfg.bottleneck_bps = 100e6;
    cfg.duration = sim::Time::seconds(40);
    cfg.workload = workload::WorkloadSpec::mice_elephants();

    const auto res = bench::run({cfg})[0];
    const exp::ClassResult* mice = find_class(res, "mice");
    const exp::ClassResult* elephants = find_class(res, "elephants");
    if (mice == nullptr) {
      std::printf("  %-16s  (no mice class in result)\n", bench::pair_label(cfg).c_str());
      continue;
    }
    std::printf("  %-16s %9.1f %9.1f %9.1f %9.2f %3u/%-3u %7.3f\n",
                bench::pair_label(cfg).c_str(), mice->fct_p50_s * 1e3, mice->fct_p95_s * 1e3,
                mice->fct_p99_s * 1e3, mice->slowdown_p50, mice->completed, mice->flows,
                elephants != nullptr ? elephants->jain : 0.0);
  }
}

}  // namespace

int main() {
  bench::print_banner(
      "Mice among the elephants: short-flow FCT under elephant CCA pairs",
      "Deep-buffer FIFO under loss-based elephants bloats mice FCT by the "
      "standing queue; FQ-CoDel isolates the mice almost completely.");
  panel(aqm::AqmKind::kFifo);
  panel(aqm::AqmKind::kFqCodel);
  panel(aqm::AqmKind::kRed);
  return 0;
}

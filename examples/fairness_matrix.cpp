// Fairness matrix: every CCA against every CCA at one bandwidth/AQM — a
// head-to-head grid of Jain indices showing which algorithms coexist.
// (The paper tests the CUBIC column; this example fills in the whole grid,
// one of the "future work" directions.)
//
// Usage: fairness_matrix [aqm] [mbps] [buffer_bdp]

#include <cstdio>
#include <vector>

#include "example_args.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"

int main(int argc, char** argv) {
  using namespace elephant;
  using cca::CcaKind;

  aqm::AqmKind aqm = aqm::AqmKind::kFifo;
  double mbps = 100;
  double bdp = 2.0;
  if (argc > 1) aqm = examples::aqm_arg(argv[1]);
  if (argc > 2) mbps = examples::positive_arg("mbps", argv[2]);
  if (argc > 3) bdp = examples::positive_arg("buffer_bdp", argv[3]);

  const std::vector<CcaKind> all = {CcaKind::kReno, CcaKind::kCubic, CcaKind::kHtcp,
                                    CcaKind::kBbrV1, CcaKind::kBbrV2};

  std::printf("Jain fairness grid, %s @ %.0f Mb/s, %.1f BDP buffer (20 s per cell)\n\n",
              aqm::to_string(aqm).c_str(), mbps, bdp);
  std::printf("%8s", "");
  for (const CcaKind col : all) std::printf(" %8s", cca::to_string(col).c_str());
  std::printf("\n");

  for (const CcaKind row : all) {
    std::printf("%8s", cca::to_string(row).c_str());
    for (const CcaKind col : all) {
      exp::ExperimentConfig cfg;
      cfg.cca1 = row;
      cfg.cca2 = col;
      cfg.aqm = aqm;
      cfg.buffer_bdp = bdp;
      cfg.bottleneck_bps = mbps * 1e6;
      cfg.duration = sim::Time::seconds(20);
      const auto res = exp::run_experiment(cfg);
      std::printf(" %8.3f", res.jain2);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n(1.0 = the two sender nodes share the bottleneck equally)\n");
  return 0;
}

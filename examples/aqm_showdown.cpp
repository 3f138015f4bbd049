// AQM showdown: the same CCA pair across all three AQMs and two buffer
// depths, printing a compact comparison table — a miniature of the paper's
// §5.2 analysis that runs in seconds.
//
// Usage: aqm_showdown [cca1] [cca2] [mbps]

#include <cstdio>

#include "example_args.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  cca::CcaKind cca1 = cca::CcaKind::kBbrV1;
  cca::CcaKind cca2 = cca::CcaKind::kCubic;
  double mbps = 100;
  if (argc > 1) cca1 = examples::cca_arg(argv[1]);
  if (argc > 2) cca2 = examples::cca_arg(argv[2]);
  if (argc > 3) mbps = examples::positive_arg("mbps", argv[3]);

  std::printf("AQM showdown: %s vs %s at %.0f Mb/s (30 s per cell)\n\n",
              cca::to_string(cca1).c_str(), cca::to_string(cca2).c_str(), mbps);
  std::printf("%-10s %7s | %10s %10s %7s %7s %9s\n", "AQM", "buffer", "S1(Mb/s)",
              "S2(Mb/s)", "J", "util", "retx");

  for (const aqm::AqmKind aqm : exp::paper_aqms()) {
    for (const double bdp : {2.0, 16.0}) {
      exp::ExperimentConfig cfg;
      cfg.cca1 = cca1;
      cfg.cca2 = cca2;
      cfg.aqm = aqm;
      cfg.buffer_bdp = bdp;
      cfg.bottleneck_bps = mbps * 1e6;
      cfg.duration = sim::Time::seconds(30);
      const auto res = exp::run_experiment(cfg);
      std::printf("%-10s %5.1fBDP | %10.2f %10.2f %7.3f %7.3f %9llu\n",
                  aqm::to_string(aqm).c_str(), bdp, res.sender_bps[0] / 1e6,
                  res.sender_bps[1] / 1e6, res.jain2, res.utilization,
                  static_cast<unsigned long long>(res.retx_segments));
    }
  }
  return 0;
}

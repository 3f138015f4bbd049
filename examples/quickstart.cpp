// Quickstart: simulate one cell of the paper's matrix — BBRv1 vs CUBIC over
// a 1 Gb/s bottleneck with a 2-BDP FIFO buffer — and print per-sender
// throughput, Jain's fairness index, utilization, and retransmissions.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [cca1] [cca2] [aqm] [buffer_bdp] [bw_gbps] [seconds] [seed]

#include <cstdio>

#include "example_args.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kBbrV1;
  cfg.cca2 = cca::CcaKind::kCubic;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 2.0;
  cfg.bottleneck_bps = 1e9;
  cfg.duration = sim::Time::seconds(30);

  if (argc > 1) cfg.cca1 = examples::cca_arg(argv[1]);
  if (argc > 2) cfg.cca2 = examples::cca_arg(argv[2]);
  if (argc > 3) cfg.aqm = examples::aqm_arg(argv[3]);
  if (argc > 4) cfg.buffer_bdp = examples::positive_arg("buffer_bdp", argv[4]);
  if (argc > 5) cfg.bottleneck_bps = examples::positive_arg("bw_gbps", argv[5]) * 1e9;
  if (argc > 6) cfg.duration = sim::Time::seconds(examples::positive_arg("seconds", argv[6]));
  if (argc > 7) cfg.seed = examples::seed_arg(argv[7]);

  std::printf("Running: %s  (%u flows, %.0f s simulated)\n", cfg.label().c_str(),
              cfg.effective_flows(), cfg.effective_duration().sec());

  const exp::ExperimentResult res = exp::run_experiment(cfg);

  std::printf("\n  sender1 (%s): %8.2f Mb/s\n", cca::to_string(cfg.cca1).c_str(),
              res.sender_bps[0] / 1e6);
  std::printf("  sender2 (%s): %8.2f Mb/s\n", cca::to_string(cfg.cca2).c_str(),
              res.sender_bps[1] / 1e6);
  std::printf("  Jain index J : %8.3f\n", res.jain2);
  std::printf("  utilization φ: %8.3f\n", res.utilization);
  std::printf("  retransmitted: %8llu segments (%llu RTOs)\n",
              static_cast<unsigned long long>(res.retx_segments),
              static_cast<unsigned long long>(res.rtos));
  std::printf("  bottleneck drops: %llu overflow, %llu early\n",
              static_cast<unsigned long long>(res.bottleneck.dropped_overflow),
              static_cast<unsigned long long>(res.bottleneck.dropped_early));
  std::printf("  [%llu events in %.2f s wall]\n",
              static_cast<unsigned long long>(res.events_executed), res.wall_seconds);
  return 0;
}

#include "bench_util.hpp"

#include <cstdio>
#include <stdexcept>

#include "exp/sweep.hpp"

namespace elephant::bench {

exp::AveragedResult run(const exp::ExperimentConfig& cfg) {
  std::fprintf(stderr, "  [run] %-45s ...", cfg.label().c_str());
  std::fflush(stderr);
  exp::SweepOptions opts;
  opts.repetitions = exp::default_repetitions();
  opts.threads = 1;
  opts.manifest_path = exp::default_journal_path();
  opts.resume = true;
  const exp::RunRecord rec = exp::run_sweep_resilient({cfg}, opts).records.front();
  if (!rec.success()) {
    throw std::runtime_error(cfg.label() + ": " + to_string(rec.status) + ": " + rec.error);
  }
  std::fprintf(stderr, " J=%.3f util=%.3f\n", rec.result.jain2, rec.result.utilization);
  return rec.result;
}

void print_banner(const std::string& title, const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("----------------------------------------------------------------\n");
  std::printf("Paper observation: %s\n", paper_claim.c_str());
  std::printf("Durations are scaled per bandwidth (see DESIGN.md); set\n");
  std::printf("ELEPHANT_DURATION_SCALE / ELEPHANT_REPS for full-length runs.\n");
  std::printf("================================================================\n");
}

std::string pair_label(const exp::ExperimentConfig& cfg) {
  return cca::to_string(cfg.cca1) + " vs " + cca::to_string(cfg.cca2);
}

std::string mbps(double bps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", bps / 1e6);
  return buf;
}

}  // namespace elephant::bench

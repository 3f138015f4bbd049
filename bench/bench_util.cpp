#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "exp/sweep.hpp"

namespace elephant::bench {

std::vector<exp::AveragedResult> run(const std::vector<exp::ExperimentConfig>& cfgs) {
  exp::SweepOptions opts;
  opts.repetitions = exp::default_repetitions();
  opts.manifest_path = exp::default_journal_path();
  opts.resume = true;
  opts.on_result = [](const exp::AveragedResult& res, std::size_t done, std::size_t total) {
    std::fprintf(stderr, "  [run %zu/%zu] %-45s J=%.3f util=%.3f\n", done, total,
                 res.config.label().c_str(), res.jain2, res.utilization);
  };
  const exp::SweepReport report = exp::run_sweep_resilient(cfgs, opts);
  std::vector<exp::AveragedResult> out;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const exp::RunRecord& rec = report.records[i];
    if (!rec.success()) {
      throw std::runtime_error(cfgs[i].label() + ": " + to_string(rec.status) + ": " +
                               rec.error);
    }
    out.push_back(rec.result);
  }
  return out;
}

void print_banner(const std::string& title, const std::string& paper_claim) {
  try {
    (void)exp::default_repetitions();
    (void)exp::duration_scale();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
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

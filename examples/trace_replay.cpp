// Trace replay: run one traced experiment with the flight recorder attached
// and write the full event stream to disk — per-flow cwnd/pacing updates,
// packet sends and retransmissions, SACK/loss marks, RTO fires, bottleneck
// AQM enqueue/drop/mark decisions, and periodic queue-depth samples. The
// output is the raw material for the paper's time-series figures (cwnd vs
// time, queue occupancy vs time).
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/trace_replay [cca1] [cca2] [aqm] [out.csv]
//
// The output is CSV (t_ns,type,flow,seq,v0,v1,v2); tools/trace2csv filters it.

#include <cstdio>
#include <fstream>
#include <string>

#include "example_args.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kBbrV1;
  cfg.cca2 = cca::CcaKind::kCubic;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.bottleneck_bps = 1e9;
  cfg.duration = sim::Time::seconds(30);
  std::string out_path = "trace.csv";

  if (argc > 1) cfg.cca1 = examples::cca_arg(argv[1]);
  if (argc > 2) cfg.cca2 = examples::cca_arg(argv[2]);
  if (argc > 3) cfg.aqm = examples::aqm_arg(argv[3]);
  if (argc > 4) out_path = argv[4];

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  trace::CsvSink sink(out);
  trace::Tracer tracer(sink);
  cfg.tracer = &tracer;

  std::printf("Tracing: %s -> %s\n", cfg.label().c_str(), out_path.c_str());
  const exp::ExperimentResult res = exp::run_experiment(cfg);

  std::printf("  sender1 (%s): %8.2f Mb/s\n", cca::to_string(cfg.cca1).c_str(),
              res.sender_bps[0] / 1e6);
  std::printf("  sender2 (%s): %8.2f Mb/s\n", cca::to_string(cfg.cca2).c_str(),
              res.sender_bps[1] / 1e6);
  std::printf("  %llu trace records written\n",
              static_cast<unsigned long long>(tracer.recorded()));
  std::printf("  plot cwnd:  awk -F, '$2==\"cwnd_update\"{print $1/1e9, $3, $5}' %s\n",
              out_path.c_str());
  std::printf("  plot queue: awk -F, '$2==\"queue_depth\"{print $1/1e9, $5}' %s\n",
              out_path.c_str());
  return 0;
}

// CCA trace: record full transport telemetry (cwnd, pipe, srtt, pacing rate,
// per-second goodput, retransmissions) for one flow of each requested CCA
// competing on the same bottleneck, and write an ML-ready CSV — the
// simulated counterpart of the paper's published iperf3/ss log dataset.
//
// Usage: cca_trace [out.csv] [mbps] [seconds] [cca ...]
//   e.g. cca_trace trace.csv 500 60 bbr1 cubic

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include "metrics/flow_monitor.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  const char* out_path = argc > 1 ? argv[1] : "cca_trace.csv";
  const double mbps = argc > 2 ? std::atof(argv[2]) : 100;
  const double seconds = argc > 3 ? std::atof(argv[3]) : 60;
  std::vector<cca::CcaKind> kinds;
  for (int i = 4; i < argc; ++i) kinds.push_back(cca::cca_kind_from_string(argv[i]));
  if (kinds.empty()) kinds = {cca::CcaKind::kBbrV1, cca::CcaKind::kCubic};

  sim::Scheduler sched;
  sim::Rng rng(99);
  net::DumbbellConfig topo;
  topo.bottleneck_bps = mbps * 1e6;
  topo.bottleneck_buffer_bytes =
      static_cast<std::size_t>(2.0 * topo.bottleneck_bps * 0.062 / 8.0);
  net::Dumbbell net(sched, topo);

  std::vector<std::unique_ptr<tcp::Flow>> flows;
  metrics::FlowMonitor monitor;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    tcp::FlowConfig fc;
    fc.id = static_cast<net::FlowId>(i + 1);
    fc.cca = kinds[i];
    fc.seed = rng.next_u64();
    fc.start_time = sim::Time::seconds(0.2 * rng.next_double());
    const int side = static_cast<int>(i % 2);
    flows.push_back(std::make_unique<tcp::Flow>(sched, net.client(side), net.server(side), fc));
    monitor.watch(*flows.back());
    flows.back()->start();
  }

  std::printf("Tracing %zu flows over %.0f Mb/s FIFO (2 BDP) for %.0f s...\n", kinds.size(),
              mbps, seconds);
  // Sample once per simulated second between scheduler calls.
  const sim::Time end = sim::Time::seconds(seconds);
  for (sim::Time t = sim::Time::seconds(1); t <= end; t += sim::Time::seconds(1)) {
    sched.run_until(t);
    monitor.sample(t);
  }
  sched.run_until(end);

  std::ofstream out(out_path);
  monitor.write_csv(out);
  std::printf("Wrote %s (%zu samples per flow)\n", out_path,
              monitor.series().empty() ? 0 : monitor.series()[0].samples.size());

  for (const auto& s : monitor.series()) {
    double sum = 0;
    for (const auto& p : s.samples) sum += p.goodput_bps;
    std::printf("  %-10s avg %8.2f Mb/s, final cwnd %7.0f segs, %llu retx\n",
                s.label.c_str(), sum / s.samples.size() / 1e6,
                s.samples.back().cwnd_segments,
                static_cast<unsigned long long>(s.samples.back().retx_units));
  }
  return 0;
}

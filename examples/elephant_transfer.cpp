// Elephant transfer: the paper's motivating scenario — a large science data
// transfer (many parallel bulk flows, like a Science DMZ DTN) sharing a
// high-throughput link with another site's transfer. Prints a per-second
// throughput trace for each sender plus a transfer-time summary.
//
// Usage: elephant_transfer [cca1] [cca2] [gbps] [seconds]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cca/congestion_control.hpp"
#include "metrics/timeseries.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  cca::CcaKind cca1 = cca::CcaKind::kBbrV2;
  cca::CcaKind cca2 = cca::CcaKind::kCubic;
  double gbps = 1.0;
  double seconds = 30.0;
  if (argc > 1) cca1 = cca::cca_kind_from_string(argv[1]);
  if (argc > 2) cca2 = cca::cca_kind_from_string(argv[2]);
  if (argc > 3) gbps = std::atof(argv[3]);
  if (argc > 4) seconds = std::atof(argv[4]);

  sim::Scheduler sched;
  sim::Rng rng(2024);

  net::DumbbellConfig topo;
  topo.bottleneck_bps = gbps * 1e9;
  topo.aqm = aqm::AqmKind::kFqCodel;  // the paper's recommended AQM
  topo.bottleneck_buffer_bytes =
      static_cast<std::size_t>(2.0 * topo.bottleneck_bps * 0.062 / 8.0);
  net::Dumbbell net(sched, topo);

  // 8 parallel streams per site, GridFTP-style.
  constexpr int kStreamsPerSite = 8;
  struct Flow {
    std::unique_ptr<tcp::TcpSender> tx;
    std::unique_ptr<tcp::TcpReceiver> rx;
    int side;
  };
  std::vector<Flow> flows;
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < kStreamsPerSite; ++i) {
      const net::FlowId id = static_cast<net::FlowId>(flows.size() + 1);
      cca::CcaParams cp;
      cp.seed = rng.next_u64();
      tcp::TcpSenderConfig sc;
      sc.flow = id;
      sc.src = net.client(side).id();
      sc.dst = net.server(side).id();
      sc.agg = gbps >= 10 ? 8 : 1;
      cp.min_cwnd_segments = sc.agg;
      sc.start_time = sim::Time::seconds(0.2 * rng.next_double());
      Flow f;
      f.side = side;
      f.rx = std::make_unique<tcp::TcpReceiver>(sched, net.server(side),
                                                net.client(side).id(), id);
      f.tx = std::make_unique<tcp::TcpSender>(
          sched, net.client(side), sc, cca::make_cca(side == 0 ? cca1 : cca2, cp));
      net.client(side).register_endpoint(id, f.tx.get());
      net.server(side).register_endpoint(id, f.rx.get());
      f.tx->start();
      flows.push_back(std::move(f));
    }
  }

  // Per-second throughput traces per site.
  auto site_bytes = [&](int side) {
    double total = 0;
    for (const Flow& f : flows) {
      if (f.side == side) total += static_cast<double>(f.rx->delivered_bytes());
    }
    return total;
  };
  metrics::TimeSeries trace1([&] { return site_bytes(0); });
  metrics::TimeSeries trace2([&] { return site_bytes(1); });

  std::printf("Elephant transfer: site1=%s vs site2=%s over %.0f Gb/s FQ-CoDel, %d+%d streams\n\n",
              cca::to_string(cca1).c_str(), cca::to_string(cca2).c_str(), gbps,
              kStreamsPerSite, kStreamsPerSite);
  // Sample once per simulated second between scheduler calls.
  const sim::Time end = sim::Time::seconds(seconds);
  for (sim::Time t = sim::Time::seconds(1); t <= end; t += sim::Time::seconds(1)) {
    sched.run_until(t);
    trace1.sample(t);
    trace2.sample(t);
  }
  sched.run_until(end);

  const auto d1 = trace1.deltas();
  const auto d2 = trace2.deltas();
  std::printf("  t(s)   site1(Mb/s)  site2(Mb/s)\n");
  for (std::size_t i = 0; i < d1.size() && i < d2.size(); ++i) {
    std::printf("  %4.0f   %10.1f  %10.1f\n", d1[i].t.sec(), d1[i].value * 8 / 1e6,
                d2[i].value * 8 / 1e6);
  }

  const double total1 = site_bytes(0);
  const double total2 = site_bytes(1);
  std::uint64_t retx = 0;
  for (const Flow& f : flows) retx += f.tx->retx_segments();
  std::printf("\n  site1 moved %.2f GB (%.1f Mb/s avg)\n", total1 / 1e9,
              total1 * 8 / seconds / 1e6);
  std::printf("  site2 moved %.2f GB (%.1f Mb/s avg)\n", total2 / 1e9,
              total2 * 8 / seconds / 1e6);
  std::printf("  total retransmissions: %llu segments\n",
              static_cast<unsigned long long>(retx));
  return 0;
}

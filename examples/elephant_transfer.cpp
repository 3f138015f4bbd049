// Elephant transfer: the paper's motivating scenario — a large science data
// transfer (many parallel bulk flows, like a Science DMZ DTN) sharing a
// high-throughput link with another site's transfer. Prints a per-second
// throughput trace for each sender plus a transfer-time summary.
//
// Usage: elephant_transfer [cca1] [cca2] [gbps] [seconds]

#include <cstdio>

#include "example_args.hpp"
#include "exp/cell.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  // 8 parallel streams per site, GridFTP-style, over the paper's
  // recommended AQM; otherwise the same cell model as the matrix.
  constexpr int kStreamsPerSite = 8;
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kBbrV2;
  cfg.cca2 = cca::CcaKind::kCubic;
  cfg.aqm = aqm::AqmKind::kFqCodel;
  cfg.buffer_bdp = 2.0;
  cfg.total_flows = 2 * kStreamsPerSite;
  cfg.seed = 2024;
  double gbps = 1.0;
  double seconds = 30.0;
  if (argc > 1) cfg.cca1 = examples::cca_arg(argv[1]);
  if (argc > 2) cfg.cca2 = examples::cca_arg(argv[2]);
  if (argc > 3) gbps = examples::positive_arg("gbps", argv[3]);
  if (argc > 4) seconds = examples::positive_arg("seconds", argv[4]);
  cfg.bottleneck_bps = gbps * 1e9;
  cfg.duration = sim::Time::seconds(seconds);

  exp::Cell cell(cfg);
  const exp::FlowFactory& flows = cell.flows();
  auto site_bytes = [&](int side) {
    double total = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows.flow(i).side == side) {
        total += static_cast<double>(flows.flow(i).receiver->delivered_bytes());
      }
    }
    return total;
  };

  std::printf(
      "Elephant transfer: site1=%s vs site2=%s over %.0f Gb/s FQ-CoDel, %d+%d streams\n\n",
      cca::to_string(cfg.cca1).c_str(), cca::to_string(cfg.cca2).c_str(), gbps,
      kStreamsPerSite, kStreamsPerSite);
  // Per-second throughput per site, sampled between scheduler calls.
  std::printf("  t(s)   site1(Mb/s)  site2(Mb/s)\n");
  double last[2] = {0, 0};
  const sim::Time end = cell.duration();
  for (sim::Time t = sim::Time::seconds(1); t <= end; t += sim::Time::seconds(1)) {
    cell.run_chunk(0, t);
    const double now[2] = {site_bytes(0), site_bytes(1)};
    std::printf("  %4.0f   %10.1f  %10.1f\n", t.sec(), (now[0] - last[0]) * 8 / 1e6,
                (now[1] - last[1]) * 8 / 1e6);
    last[0] = now[0];
    last[1] = now[1];
  }
  cell.run_chunk(0, end);

  const double total1 = site_bytes(0);
  const double total2 = site_bytes(1);
  std::uint64_t retx = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) retx += flows.flow(i).sender->retx_segments();
  std::printf("\n  site1 moved %.2f GB (%.1f Mb/s avg)\n", total1 / 1e9,
              total1 * 8 / seconds / 1e6);
  std::printf("  site2 moved %.2f GB (%.1f Mb/s avg)\n", total2 / 1e9,
              total2 * 8 / seconds / 1e6);
  std::printf("  total retransmissions: %llu segments\n",
              static_cast<unsigned long long>(retx));
  return 0;
}

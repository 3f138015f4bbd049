// CCA trace: record full transport telemetry (cwnd, pipe, srtt, pacing rate,
// per-second goodput, retransmissions) for one flow of each requested CCA
// competing on the same bottleneck, and write an ML-ready CSV — the
// simulated counterpart of the paper's published iperf3/ss log dataset.
//
// Usage: cca_trace [out.csv] [mbps] [seconds] [cca ...]
//   e.g. cca_trace trace.csv 500 60 bbr1 cubic

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "example_args.hpp"
#include "exp/cell.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  const char* out_path = argc > 1 ? argv[1] : "cca_trace.csv";
  const double mbps = argc > 2 ? examples::positive_arg("mbps", argv[2]) : 100;
  const double seconds = argc > 3 ? examples::positive_arg("seconds", argv[3]) : 60;
  std::vector<cca::CcaKind> kinds;
  for (int i = 4; i < argc; ++i) kinds.push_back(examples::cca_arg(argv[i]));
  if (kinds.empty()) kinds = {cca::CcaKind::kBbrV1, cca::CcaKind::kCubic};

  // One single-flow elephant class per CCA, alternating sides, each started
  // within the first 200 ms.
  exp::ExperimentConfig cfg;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 2.0;
  cfg.bottleneck_bps = mbps * 1e6;
  cfg.duration = sim::Time::seconds(seconds);
  cfg.seed = 99;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    workload::TrafficClass tc;
    tc.name = cca::to_string(kinds[i]);
    tc.cca = kinds[i];
    tc.count = 1;
    tc.side = static_cast<int>(i % 2);
    tc.start_window = sim::Time::milliseconds(200);
    cfg.workload.classes.push_back(tc);
  }
  exp::Cell cell(cfg);
  const exp::FlowFactory& flows = cell.flows();

  struct Sample {
    double t_s, cwnd, pipe, srtt_ms, pacing_bps, goodput_bps;
    std::uint64_t retx_units, rtos;
  };
  std::vector<std::vector<Sample>> samples(flows.size());
  std::vector<double> last_bytes(flows.size(), 0.0);

  std::printf("Tracing %zu flows over %.0f Mb/s FIFO (2 BDP) for %.0f s...\n", kinds.size(),
              mbps, seconds);
  // Sample once per simulated second between scheduler calls.
  const sim::Time end = cell.duration();
  for (sim::Time t = sim::Time::seconds(1); t <= end; t += sim::Time::seconds(1)) {
    cell.run_chunk(0, t);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const tcp::TcpSender& tx = *flows.flow(i).sender;
      const auto bytes = static_cast<double>(flows.flow(i).receiver->delivered_bytes());
      samples[i].push_back({t.sec(), tx.cc().cwnd_segments(), tx.pipe_segments(),
                            tx.rtt().srtt().ms(), tx.cc().pacing_rate_bps(),
                            (bytes - last_bytes[i]) * 8.0, tx.stats().retx_units,
                            tx.stats().rtos});
      last_bytes[i] = bytes;
    }
  }
  cell.run_chunk(0, end);

  std::ofstream out(out_path);
  out << "label,flow,t_s,cwnd_segments,pipe_segments,srtt_ms,pacing_bps,goodput_bps,"
         "retx_units,rtos\n";
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const tcp::TcpSender& tx = *flows.flow(i).sender;
    labels.push_back(tx.cc().name() + "-" + std::to_string(tx.config().flow));
    for (const Sample& s : samples[i]) {
      out << labels[i] << ',' << tx.config().flow << ',' << s.t_s << ',' << s.cwnd << ','
          << s.pipe << ',' << s.srtt_ms << ',' << s.pacing_bps << ',' << s.goodput_bps << ','
          << s.retx_units << ',' << s.rtos << '\n';
    }
  }
  std::printf("Wrote %s (%zu samples per flow)\n", out_path,
              samples.empty() ? 0 : samples[0].size());

  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (samples[i].empty()) continue;
    double sum = 0;
    for (const Sample& s : samples[i]) sum += s.goodput_bps;
    std::printf("  %-10s avg %8.2f Mb/s, final cwnd %7.0f segs, %llu retx\n",
                labels[i].c_str(), sum / samples[i].size() / 1e6, samples[i].back().cwnd,
                static_cast<unsigned long long>(samples[i].back().retx_units));
  }
  return 0;
}

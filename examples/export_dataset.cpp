// Dataset exporter — the paper's fourth contribution is a reproducible
// dataset of TCP logs "useful for developing, training, and testing TCP ML
// models". This tool runs a configurable slice of the experiment matrix and
// writes a tidy CSV (one row per run, plus a per-flow CSV) ready for pandas
// or similar.
//
// Usage: export_dataset [out_prefix] [aqm|all] [max_bw_gbps]
//   e.g. export_dataset dataset fifo 1     -> dataset_runs.csv, dataset_flows.csv

#include <cstdio>
#include <fstream>
#include <string>

#include "example_args.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"

int main(int argc, char** argv) {
  using namespace elephant;

  std::string prefix = argc > 1 ? argv[1] : "dataset";
  const std::string aqm_arg = argc > 2 ? argv[2] : "all";
  const double max_bw = (argc > 3 ? examples::positive_arg("max_bw_gbps", argv[3]) : 1.0) * 1e9;

  std::vector<aqm::AqmKind> aqms;
  if (aqm_arg == "all") {
    aqms = exp::paper_aqms();
  } else {
    aqms = {examples::aqm_arg(aqm_arg.c_str())};
  }
  std::vector<double> bws;
  for (const double bw : exp::paper_bandwidths()) {
    if (bw <= max_bw) bws.push_back(bw);
  }

  const auto configs =
      exp::make_matrix(exp::paper_cca_pairs(), aqms, exp::paper_buffer_bdps(), bws);

  std::ofstream runs(prefix + "_runs.csv");
  std::ofstream flows(prefix + "_flows.csv");
  runs << "cca1,cca2,aqm,buffer_bdp,bw_bps,flows,duration_s,seed,"
          "sender1_bps,sender2_bps,jain2,utilization,retx_segments,rtos,"
          "bottleneck_drops_overflow,bottleneck_drops_early\n";
  flows << "cca1,cca2,aqm,buffer_bdp,bw_bps,flow,sender,cca,throughput_bps,"
           "retx_segments,rtos,srtt_ms\n";

  std::size_t done = 0;
  for (const auto& cfg : configs) {
    const auto res = exp::run_experiment(cfg);
    runs << cca::to_string(cfg.cca1) << ',' << cca::to_string(cfg.cca2) << ','
         << aqm::to_string(cfg.aqm) << ',' << cfg.buffer_bdp << ',' << cfg.bottleneck_bps
         << ',' << cfg.effective_flows() << ',' << cfg.effective_duration().sec() << ','
         << cfg.seed << ',' << res.sender_bps[0] << ',' << res.sender_bps[1] << ','
         << res.jain2 << ',' << res.utilization << ',' << res.retx_segments << ','
         << res.rtos << ',' << res.bottleneck.dropped_overflow << ','
         << res.bottleneck.dropped_early << '\n';
    for (const auto& f : res.flows) {
      flows << cca::to_string(cfg.cca1) << ',' << cca::to_string(cfg.cca2) << ','
            << aqm::to_string(cfg.aqm) << ',' << cfg.buffer_bdp << ','
            << cfg.bottleneck_bps << ',' << f.flow << ',' << f.sender << ',' << f.cca
            << ',' << f.throughput_bps << ',' << f.retx_segments << ',' << f.rtos << ','
            << f.srtt_ms << '\n';
    }
    ++done;
    std::fprintf(stderr, "\r%zu/%zu runs", done, configs.size());
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\nWrote %s_runs.csv and %s_flows.csv (%zu runs)\n", prefix.c_str(),
               prefix.c_str(), done);
  return 0;
}

// Future-work sweeps: the extensions the paper's conclusion names —
// (1) varying RTTs, (2) performance under injected packet loss, and
// (3) network anomalies (outages, degradation, bursty loss) — run as small
// parameter sweeps with the same harness. Not a paper figure; shapes here
// extend the study in the directions §6 proposes.

#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_util.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace {

using namespace elephant;
using cca::CcaKind;

/// c1 vs c2 through a 2-BDP FIFO buffer at 500M, the base cell of the sweeps.
exp::ExperimentConfig cell(CcaKind c1, CcaKind c2) {
  return exp::make_matrix({{c1, c2}}, {aqm::AqmKind::kFifo}, {2}, {500e6})[0];
}

/// Run `cfgs` as one sweep and print their utilizations `per_row` to a row,
/// each row after `label(row index)`.
template <typename Label>
void utilization_rows(const std::vector<exp::ExperimentConfig>& cfgs, std::size_t per_row,
                      Label label) {
  const std::vector<exp::AveragedResult> res = bench::run(cfgs);
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (i % per_row == 0) label(i / per_row);
    std::printf(" %8.3f", res[i].utilization);
    if (i % per_row == per_row - 1) std::printf("\n");
  }
}

}  // namespace

int main() {
  bench::print_banner(
      "Future-work sweeps: RTT sensitivity and injected loss",
      "paper §6: 'we intend to ... observe performance under network "
      "anomalies (e.g. variable rates of packet loss), and RTTs'");

  std::printf("\n[RTT sweep] bbr1 vs cubic, FIFO, 2 BDP, 500M (buffer scales with BDP)\n");
  std::printf("  %-8s %12s %12s %7s %7s\n", "RTT(ms)", "bbr1(Mb/s)", "cubic(Mb/s)", "J",
              "util");
  const int rtts_ms[] = {10, 30, 62, 120, 240};
  std::vector<exp::ExperimentConfig> cfgs;
  for (const int ms : rtts_ms) {
    cfgs.emplace_back(cell(CcaKind::kBbrV1, CcaKind::kCubic)).rtt = sim::Time::milliseconds(ms);
  }
  const std::vector<exp::AveragedResult> rtt_res = bench::run(cfgs);
  for (std::size_t i = 0; i < rtt_res.size(); ++i) {
    const exp::AveragedResult& res = rtt_res[i];
    std::printf("  %-8d %12s %12s %7.3f %7.3f\n", rtts_ms[i],
                bench::mbps(res.sender_bps[0]).c_str(),
                bench::mbps(res.sender_bps[1]).c_str(), res.jain2, res.utilization);
  }

  std::printf("\n[loss sweep] intra-CCA utilization under injected Bernoulli loss, "
              "FIFO, 2 BDP, 500M\n");
  std::printf("  %-9s", "loss");
  const CcaKind kinds[] = {CcaKind::kReno, CcaKind::kCubic, CcaKind::kHtcp, CcaKind::kBbrV1,
                           CcaKind::kBbrV2};
  for (const CcaKind k : kinds) std::printf(" %8s", cca::to_string(k).c_str());
  std::printf("\n");
  cfgs.clear();
  const double losses[] = {0.0, 0.0001, 0.001, 0.01};
  for (const double loss : losses) {
    for (const CcaKind k : kinds) cfgs.emplace_back(cell(k, k)).random_loss = loss;
  }
  utilization_rows(cfgs, std::size(kinds),
                   [&](std::size_t r) { std::printf("  %-9g", losses[r]); });
  std::printf("\n(Loss-based CCAs collapse with random loss; BBRv1 shrugs it off — the\n"
              " same mechanism behind the paper's RED results.)\n");

  std::printf("\n[fixing RED] the paper's conclusion asks for RED parameter tuning at\n"
              "high BW; Adaptive RED (Floyd 2001) and PIE (RFC 8033) are the standard\n"
              "answers. Intra-CUBIC utilization at 2 BDP:\n");
  std::printf("  %-14s", "AQM");
  const std::vector<double> red_bws = {1e9, 10e9, 25e9};
  for (const double bw : red_bws) std::printf(" %8s", exp::bw_label(bw).c_str());
  std::printf("\n");
  const std::vector<aqm::AqmKind> aqms = {aqm::AqmKind::kRed, aqm::AqmKind::kRedAdaptive,
                                          aqm::AqmKind::kPie};
  cfgs = exp::make_matrix({{CcaKind::kCubic, CcaKind::kCubic}}, aqms, {2}, red_bws);
  utilization_rows(cfgs, red_bws.size(), [&](std::size_t r) {
    std::printf("  %-14s", aqm::to_string(aqms[r]).c_str());
  });

  std::printf("\n[link flap] bbr1 vs cubic, FIFO, 2 BDP, 500M: a mid-run outage, with\n"
              "fault apply/revert events captured by the flight recorder and the\n"
              "post-run conservation invariants checked on every cell:\n");
  std::printf("  %-10s %12s %12s %7s %6s %7s\n", "outage(s)", "bbr1(Mb/s)", "cubic(Mb/s)",
              "util", "rtos", "faults");
  for (const double down_s : {0.0, 0.5, 2.0}) {
    exp::ExperimentConfig cfg = cell(CcaKind::kBbrV1, CcaKind::kCubic);
    if (down_s > 0) {
      cfg.fault_plan = fault::FaultPlan::link_flap(
          sim::Time::seconds(cfg.effective_duration().sec() / 3),
          sim::Time::seconds(down_s));
    }
    trace::MemorySink sink;
    trace::Tracer tracer(sink);
    tracer.enable_only({trace::RecordType::kFault});
    cfg.tracer = &tracer;
    const auto res = exp::run_experiment(cfg);  // invariants on by default
    int fault_records = 0;
    for (const auto& r : sink.records()) {
      fault_records += r.type == trace::RecordType::kFault ? 1 : 0;
    }
    std::printf("  %-10g %12s %12s %7.3f %6llu %7d\n", down_s,
                bench::mbps(res.sender_bps[0]).c_str(),
                bench::mbps(res.sender_bps[1]).c_str(), res.utilization,
                static_cast<unsigned long long>(res.rtos), fault_records);
  }
  std::printf("(Timeout recovery after the outage; both CCAs refill the pipe.)\n");

  std::printf("\n[bursty loss] Gilbert-Elliott vs Bernoulli at the same stationary rate,\n"
              "intra-CCA utilization, FIFO, 2 BDP, 500M (burst = mean 20-packet runs):\n");
  std::printf("  %-22s", "loss model");
  for (const CcaKind k : kinds) std::printf(" %8s", cca::to_string(k).c_str());
  std::printf("\n");
  cfgs.clear();
  const double loss = 0.003;
  for (const CcaKind k : kinds) cfgs.emplace_back(cell(k, k)).random_loss = loss;
  for (const CcaKind k : kinds) {
    cfgs.emplace_back(cell(k, k)).ge_loss = fault::GilbertElliottParams::from_loss(loss, 20);
  }
  utilization_rows(cfgs, std::size(kinds), [](std::size_t r) {
    std::printf("  %-22s", r == 0 ? "bernoulli 0.003" : "gilbert-elliott 0.003");
  });
  std::printf("(Same mean loss, different texture: burstiness concentrates the damage\n"
              " into fewer congestion events, so loss-based CCAs keep more throughput\n"
              " than under independent drops.)\n");
  return 0;
}

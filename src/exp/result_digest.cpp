#include "exp/result_digest.hpp"

#include <bit>
#include <cstdio>

#include "sim/snapshot.hpp"

namespace elephant::exp {

namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

}  // namespace

std::uint64_t metrics_digest(const ExperimentResult& res) {
  // Field order is part of the contract: the golden digests in
  // tests/determinism_digest_test.cpp were captured with exactly this fold.
  std::uint64_t h = sim::kFnvOffset;
  auto fold = sim::fnv1a_fold;
  h = fold(h, bits(res.sender_bps[0]));
  h = fold(h, bits(res.sender_bps[1]));
  h = fold(h, bits(res.jain2));
  h = fold(h, bits(res.utilization));
  h = fold(h, res.retx_segments);
  h = fold(h, res.rtos);
  h = fold(h, res.bottleneck.enqueued);
  h = fold(h, res.bottleneck.dequeued);
  h = fold(h, res.bottleneck.dropped_overflow);
  h = fold(h, res.bottleneck.dropped_early);
  h = fold(h, res.bottleneck.bytes_enqueued);
  for (const FlowResult& f : res.flows) {
    h = fold(h, bits(f.throughput_bps));
    h = fold(h, f.retx_segments);
    h = fold(h, f.rtos);
    h = fold(h, bits(f.srtt_ms));
  }
  return h;
}

std::vector<std::string> diff_results(const ExperimentResult& a, const ExperimentResult& b) {
  std::vector<std::string> out;
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto diff_f64 = [&](const std::string& name, double va, double vb) {
    if (bits(va) != bits(vb)) out.push_back(name + ": " + num(va) + " != " + num(vb));
  };
  auto diff_u64 = [&](const std::string& name, std::uint64_t va, std::uint64_t vb) {
    if (va != vb) out.push_back(name + ": " + std::to_string(va) + " != " + std::to_string(vb));
  };

  diff_f64("sender_bps[0]", a.sender_bps[0], b.sender_bps[0]);
  diff_f64("sender_bps[1]", a.sender_bps[1], b.sender_bps[1]);
  diff_f64("jain2", a.jain2, b.jain2);
  diff_f64("utilization", a.utilization, b.utilization);
  diff_u64("retx_segments", a.retx_segments, b.retx_segments);
  diff_u64("rtos", a.rtos, b.rtos);
  diff_u64("bottleneck.enqueued", a.bottleneck.enqueued, b.bottleneck.enqueued);
  diff_u64("bottleneck.dequeued", a.bottleneck.dequeued, b.bottleneck.dequeued);
  diff_u64("bottleneck.dropped_overflow", a.bottleneck.dropped_overflow,
           b.bottleneck.dropped_overflow);
  diff_u64("bottleneck.dropped_early", a.bottleneck.dropped_early, b.bottleneck.dropped_early);
  diff_u64("bottleneck.bytes_enqueued", a.bottleneck.bytes_enqueued, b.bottleneck.bytes_enqueued);
  diff_u64("n_flows", a.flows.size(), b.flows.size());
  const std::size_t n = a.flows.size() < b.flows.size() ? a.flows.size() : b.flows.size();
  for (std::size_t i = 0; i < n; ++i) {
    const FlowResult& fa = a.flows[i];
    const FlowResult& fb = b.flows[i];
    const std::string p = "flow[" + std::to_string(i) + "].";
    diff_f64(p + "throughput_bps", fa.throughput_bps, fb.throughput_bps);
    diff_u64(p + "retx_segments", fa.retx_segments, fb.retx_segments);
    diff_u64(p + "rtos", fa.rtos, fb.rtos);
    diff_f64(p + "srtt_ms", fa.srtt_ms, fb.srtt_ms);
  }
  return out;
}

}  // namespace elephant::exp

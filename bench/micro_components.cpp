// Micro-benchmarks for the simulator's hot paths: event scheduling, queue
// disciplines, CCA ack processing, and a full end-to-end cell. These bound
// how much simulated traffic a wall-clock second buys and guided the
// aggregation factors documented in DESIGN.md.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "aqm/fifo.hpp"
#include "aqm/fq_codel.hpp"
#include "aqm/red.hpp"
#include "cca/congestion_control.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace elephant;

// Steady-state schedule+fire churn against a populated heap. The pre-fix
// version of this benchmark never let the queue grow past one element, so it
// measured the trivial empty-heap fast path instead of the O(log n) sift
// work a real simulation (thousands of pending timers) pays per event.
// `range(0)` is the standing backlog: 0 reproduces the old measurement,
// 1k/100k are representative of small and large experiment cells.
void BM_SchedulerChurn(benchmark::State& state) {
  sim::Scheduler sched;
  const std::int64_t depth = state.range(0);
  // Backlog parked far in the future so it stays pending for the whole run.
  constexpr std::int64_t kFar = std::int64_t{1} << 60;
  for (std::int64_t i = 0; i < depth; ++i) {
    sched.schedule_at(sim::Time::nanoseconds(kFar + i), [] {});
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    sched.schedule_at(sim::Time::nanoseconds(++t), [] {});
    sched.run_until(sim::Time::nanoseconds(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerChurn)->Arg(0)->Arg(1 << 10)->Arg(100'000);

// BM_SchedulerChurn with live telemetry gauges attached: the registry gate
// for instrumentation is "<2% over the uninstrumented churn at the same
// depth" (checked against BENCH_micro.json by the CI perf script). This is
// the worst case for the pull-based design — one run_until (and therefore one
// publish_metrics, three relaxed stores) per event.
void BM_SchedulerChurnInstrumented(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::SchedulerMetrics metrics;
  metrics.events_executed = &reg.gauge("sim.events_executed");
  metrics.heap_depth = &reg.gauge("sim.heap_depth");
  metrics.heap_peak = &reg.gauge("sim.heap_peak");
  sim::Scheduler sched;
  sched.set_metrics(&metrics);
  const std::int64_t depth = state.range(0);
  constexpr std::int64_t kFar = std::int64_t{1} << 60;
  for (std::int64_t i = 0; i < depth; ++i) {
    sched.schedule_at(sim::Time::nanoseconds(kFar + i), [] {});
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    sched.schedule_at(sim::Time::nanoseconds(++t), [] {});
    sched.run_until(sim::Time::nanoseconds(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerChurnInstrumented)->Arg(0)->Arg(1 << 10)->Arg(100'000);

// The telemetry primitives in isolation: one counter bump + gauge store +
// histogram record per item, the cost a fully instrumented per-packet path
// would add.
void BM_MetricsHotPath(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("sim.events");
  obs::Gauge& gauge = reg.gauge("tcp.cwnd_segments");
  obs::LogLinHistogram& hist = reg.histogram("queue.sojourn_s");
  double v = 1e-6;
  for (auto _ : state) {
    counter.add();
    gauge.set(v);
    hist.record(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;  // sweep across octaves
  }
  benchmark::DoNotOptimize(hist.quantile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHotPath);

// Histogram record alone, on a value walking the full range: bucket_index is
// one frexp + a few integer ops, so this should sit within a small factor of
// a plain array increment.
void BM_HistogramRecord(benchmark::State& state) {
  obs::LogLinHistogram hist;
  double v = 1e-9;
  for (auto _ : state) {
    hist.record(v);
    v = v < 1e9 ? v * 1.001 : 1e-9;
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// Schedule-then-cancel churn against a populated heap: the indexed heap
// removes the entry eagerly; the pre-swap engine grew a tombstone set.
void BM_SchedulerCancelChurn(benchmark::State& state) {
  sim::Scheduler sched;
  constexpr std::int64_t kFar = std::int64_t{1} << 60;
  for (std::int64_t i = 0; i < 1024; ++i) {
    sched.schedule_at(sim::Time::nanoseconds(kFar + i), [] {});
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    const sim::EventId id = sched.schedule_at(sim::Time::nanoseconds(kFar - (++t)), [] {});
    sched.cancel(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerCancelChurn);

// Re-arm + fire cycle of one TimerHandle against a populated heap — the RTO
// / pacing / delivery-line pattern. The pre-swap equivalent is a fresh
// schedule_at per cycle (captured in BM_SchedulerChurn).
void BM_TimerRearmChurn(benchmark::State& state) {
  sim::Scheduler sched;
  constexpr std::int64_t kFar = std::int64_t{1} << 60;
  for (std::int64_t i = 0; i < 1024; ++i) {
    sched.schedule_at(sim::Time::nanoseconds(kFar + i), [] {});
  }
  sim::TimerHandle timer;
  timer.init(sched, [] {});
  std::int64_t t = 0;
  for (auto _ : state) {
    timer.rearm(sim::Time::nanoseconds(++t));
    sched.run_until(sim::Time::nanoseconds(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearmChurn);

net::Packet bench_packet(std::uint64_t i) {
  net::Packet p;
  p.flow = static_cast<net::FlowId>(i % 64);
  p.seq = i;
  p.size = 8900;
  return p;
}

void BM_FifoEnqueueDequeue(benchmark::State& state) {
  sim::Scheduler sched;
  aqm::FifoQueue q(sched, std::size_t{1} << 30);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)q.enqueue(bench_packet(i++));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoEnqueueDequeue);

void BM_RedEnqueueDequeue(benchmark::State& state) {
  sim::Scheduler sched;
  aqm::RedConfig cfg;
  cfg.limit_bytes = std::size_t{1} << 30;
  aqm::RedQueue q(sched, cfg, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)q.enqueue(bench_packet(i++));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedEnqueueDequeue);

void BM_FqCodelEnqueueDequeue(benchmark::State& state) {
  sim::Scheduler sched;
  aqm::FqCodelConfig cfg;
  cfg.memory_limit_bytes = std::size_t{1} << 30;
  aqm::FqCodelQueue q(sched, cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)q.enqueue(bench_packet(i++));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FqCodelEnqueueDequeue);

// FQ-CoDel at its memory limit, the regime of the paper's shallow-buffer
// cells: one dequeue per four enqueues, so three enqueues in four overflow
// and cull the head of the fattest bucket. `range(0)` is the number of
// active flows sharing the 1024 buckets.
void BM_FqCodelOverflow(benchmark::State& state) {
  const auto flows = static_cast<std::uint64_t>(state.range(0));
  sim::Scheduler sched;
  aqm::FqCodelConfig cfg;
  cfg.memory_limit_bytes = 64 * 8900;
  aqm::FqCodelQueue q(sched, cfg);
  std::uint64_t i = 0;
  const auto packet = [&] {
    net::Packet p = bench_packet(i);
    p.flow = static_cast<net::FlowId>(i++ % flows);
    return p;
  };
  while (q.stats().dropped_overflow == 0) (void)q.enqueue(packet());
  for (auto _ : state) {
    (void)q.enqueue(packet());
    if (i % 4 == 0) benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FqCodelOverflow)->Arg(2)->Arg(200);

void BM_CcaOnAck(benchmark::State& state, cca::CcaKind kind) {
  auto cc = cca::make_cca(kind, cca::CcaParams{});
  cca::AckSample ack;
  ack.rtt = sim::Time::milliseconds(62);
  ack.min_rtt = ack.rtt;
  ack.acked_segments = 2;
  ack.delivery_rate = 1000;
  double t = 0;
  double delivered = 0;
  for (auto _ : state) {
    t += 1e-4;
    delivered += 2;
    ack.now = sim::Time::seconds(t);
    ack.delivered_segments = delivered;
    ack.inflight_segments = 100;
    ack.round_start = (state.iterations() % 50) == 0;
    cc->on_ack(ack);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CcaOnAck, reno, cca::CcaKind::kReno);
BENCHMARK_CAPTURE(BM_CcaOnAck, cubic, cca::CcaKind::kCubic);
BENCHMARK_CAPTURE(BM_CcaOnAck, htcp, cca::CcaKind::kHtcp);
BENCHMARK_CAPTURE(BM_CcaOnAck, bbr1, cca::CcaKind::kBbrV1);
BENCHMARK_CAPTURE(BM_CcaOnAck, bbr2, cca::CcaKind::kBbrV2);

void BM_EndToEndCell(benchmark::State& state) {
  // One short experiment cell per iteration: measures whole-stack
  // events/second (reported as items = executed events).
  for (auto _ : state) {
    exp::ExperimentConfig cfg;
    cfg.cca1 = cca::CcaKind::kCubic;
    cfg.cca2 = cca::CcaKind::kCubic;
    cfg.bottleneck_bps = 100e6;
    cfg.duration = sim::Time::seconds(5);
    const auto res = exp::run_experiment(cfg);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(res.events_executed));
  }
}
BENCHMARK(BM_EndToEndCell)->Unit(benchmark::kMillisecond);

void BM_ManyFlowCell(benchmark::State& state) {
  // The compact-state headline: Arg(0) finite CUBIC flows (constant total
  // work — ~600k units split across the fleet) through a 10G FIFO cell at
  // aggregation 1, so per-ACK scoreboard walks and per-flow state dominate.
  // items = executed events; bytes_per_flow is the slab-arena + peak
  // scoreboard footprint over the flow count, read from the run's memory
  // gauges — the two numbers the perf gate tracks for this layout.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  double bytes_per_flow = 0;
  for (auto _ : state) {
    obs::MetricsRegistry reg;
    exp::ExperimentConfig cfg;
    cfg.cca1 = cca::CcaKind::kCubic;
    cfg.cca2 = cca::CcaKind::kCubic;
    cfg.aqm = aqm::AqmKind::kFifo;
    cfg.buffer_bdp = 1.0;
    cfg.bottleneck_bps = 10e9;
    cfg.aggregation = 1;
    cfg.duration = sim::Time::seconds(5);
    cfg.seed = 20260809;
    cfg.metrics = &reg;
    workload::TrafficClass flows;
    flows.name = "manyflow";
    flows.kind = workload::ClassKind::kFinite;
    flows.cca = cca::CcaKind::kCubic;
    flows.count = n;
    flows.start_window = sim::Time::seconds(4);
    flows.size =
        workload::SizeSpec::fixed(std::max(4.0, 600'000.0 / n) * 8900.0);
    cfg.workload.classes.push_back(flows);
    const auto res = exp::run_experiment(cfg);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(res.events_executed));
    bytes_per_flow = (reg.gauge("mem.flow_arena_bytes").value() +
                      reg.gauge("mem.scoreboard_peak_bytes").value()) /
                     n;
  }
  state.counters["bytes_per_flow"] = benchmark::Counter(bytes_per_flow);
}
BENCHMARK(BM_ManyFlowCell)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_SimSecondsPerWallSecond(benchmark::State& state) {
  // The capacity planner's number: how many simulated seconds of a paper
  // cell (CUBIC vs BBRv1, FIFO, 1 BDP, 100 Mbps) one wall-clock second buys.
  // Reported as the "sim_s_per_wall_s" rate counter.
  double sim_seconds = 0;
  for (auto _ : state) {
    exp::ExperimentConfig cfg;
    cfg.cca1 = cca::CcaKind::kCubic;
    cfg.cca2 = cca::CcaKind::kBbrV1;
    cfg.aqm = aqm::AqmKind::kFifo;
    cfg.buffer_bdp = 1.0;
    cfg.bottleneck_bps = 100e6;
    cfg.duration = sim::Time::seconds(5);
    cfg.seed = 20240817;
    const auto res = exp::run_experiment(cfg);
    benchmark::DoNotOptimize(res.jain2);
    sim_seconds += cfg.duration.sec();
  }
  state.counters["sim_s_per_wall_s"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimSecondsPerWallSecond)->Unit(benchmark::kMillisecond);

}  // namespace

#include "exp/flow_factory.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace elephant::exp {

namespace {

/// Hard cap on instantiated flows per run: an over-eager Poisson rate should
/// degrade into a truncated arrival sequence, not an out-of-memory kill.
/// Slab-dense per-flow state keeps even the cap's worth of flows to a few
/// hundred MB, so the cap sits at the million-flow roadmap scale.
constexpr std::size_t kMaxFlows = 1u << 20;

}  // namespace

FlowFactory::FlowFactory(sim::Scheduler& sched, net::Dumbbell& net,
                         const ExperimentConfig& cfg, sim::Rng& cell_rng,
                         const obs::TcpMetrics* metrics)
    : sched_(sched), net_(net), cfg_(cfg), metrics_(metrics) {
  if (cfg_.workload.is_paper_default()) {
    build_paper(cell_rng);
    return;
  }
  for (int ci = 0; ci < static_cast<int>(cfg_.workload.classes.size()); ++ci) {
    build_class(ci, cfg_.workload.classes[static_cast<std::size_t>(ci)]);
  }
}

void FlowFactory::build_paper(sim::Rng& rng) {
  const std::uint32_t n_flows = std::max<std::uint32_t>(cfg_.effective_flows(), 1);
  // Split across the two sender nodes; odd counts give the extra flow to
  // side 0 (cca1) deterministically, instead of silently dropping it.
  const std::uint32_t per_side[2] = {(n_flows + 1) / 2, n_flows / 2};
  for (int side = 0; side < 2; ++side) {
    for (std::uint32_t i = 0; i < per_side[side]; ++i) {
      const std::uint64_t cca_seed = rng.next_u64();
      // Stagger starts within half a second, like scripted iperf3 launches.
      const sim::Time start = sim::Time::seconds(0.5 * rng.next_double());
      spawn(-1, side, start, 0, cca_seed, 0);
    }
  }
}

void FlowFactory::build_class(int ci, const workload::TrafficClass& tc) {
  using workload::Arrival;
  using workload::ClassKind;

  // Every class owns a disjoint seed sub-stream of the cell seed: arrivals
  // and sizes from class_rng, CCA/app seeds from further per-flow streams.
  const std::uint64_t class_base =
      sim::derive_seed(cfg_.seed, 0x200000000ULL + static_cast<std::uint64_t>(ci));
  sim::Rng class_rng(sim::derive_seed(class_base, 1));
  const sim::Time duration = cfg_.effective_duration();

  auto side_for = [&](std::uint32_t fi, std::uint32_t n) -> int {
    if (tc.side == 0 || tc.side == 1) return tc.side;
    if (tc.kind == ClassKind::kElephant) {
      // Mirror the paper split: the first ceil(n/2) flows on side 0.
      return fi < (n + 1) / 2 ? 0 : 1;
    }
    return static_cast<int>(fi % 2);  // alternate short flows across sides
  };
  auto seeds_for = [&](std::uint32_t fi, std::uint64_t* cca_seed, std::uint64_t* app_seed) {
    *cca_seed = sim::derive_seed(class_base, 0x100000000ULL + fi);
    *app_seed = sim::derive_seed(class_base, 0x200000000ULL + fi);
  };

  if (tc.arrival == Arrival::kPoisson) {
    if (!(tc.arrival_rate_hz > 0)) return;
    sim::Time t = tc.start_offset;
    for (std::uint32_t fi = 0; flows_.size() < kMaxFlows; ++fi) {
      if (tc.count != 0 && fi >= tc.count) break;
      t += sim::Time::seconds(class_rng.next_exponential(1.0 / tc.arrival_rate_hz));
      if (t >= duration) break;
      const std::uint64_t bytes =
          tc.kind == ClassKind::kElephant ? 0 : tc.size.sample(class_rng);
      std::uint64_t cca_seed = 0;
      std::uint64_t app_seed = 0;
      seeds_for(fi, &cca_seed, &app_seed);
      spawn(ci, side_for(fi, tc.count), t, bytes, cca_seed, app_seed);
    }
    return;
  }

  // Staggered arrivals: a fixed flow count spread uniformly over the window.
  std::uint32_t n = tc.count;
  if (n == 0 && tc.kind == ClassKind::kElephant) n = cfg_.effective_flows();
  for (std::uint32_t fi = 0; fi < n && flows_.size() < kMaxFlows; ++fi) {
    const sim::Time start =
        tc.start_offset + sim::Time::seconds(tc.start_window.sec() * class_rng.next_double());
    const std::uint64_t bytes =
        tc.kind == ClassKind::kElephant ? 0 : tc.size.sample(class_rng);
    std::uint64_t cca_seed = 0;
    std::uint64_t app_seed = 0;
    seeds_for(fi, &cca_seed, &app_seed);
    spawn(ci, side_for(fi, n), start, bytes, cca_seed, app_seed);
  }
}

FlowInstance& FlowFactory::spawn(int ci, int side, sim::Time start, std::uint64_t bytes,
                                 std::uint64_t cca_seed, std::uint64_t app_seed) {
  using workload::ClassKind;
  const workload::TrafficClass* tc =
      ci >= 0 ? &cfg_.workload.classes[static_cast<std::size_t>(ci)] : nullptr;
  const ClassKind kind = tc != nullptr ? tc->kind : ClassKind::kElephant;
  const net::FlowId flow = static_cast<net::FlowId>(flows_.size() + 1);
  net::Host& client = net_.client(side);
  net::Host& server = net_.server(side);
  const std::uint32_t agg = cfg_.effective_aggregation();
  const cca::CcaKind cca_kind = tc == nullptr || tc->cca_from_pair
                                    ? (side == 0 ? cfg_.cca1 : cfg_.cca2)
                                    : tc->cca;

  cca::CcaParams cp;
  cp.mss_bytes = cfg_.mss;
  cp.initial_cwnd_segments = std::max<double>(10.0, agg);
  cp.min_cwnd_segments = std::max<double>(2.0, agg);
  cp.seed = cca_seed;

  tcp::TcpSenderConfig sc;
  sc.flow = flow;
  sc.src = client.id();
  sc.dst = server.id();
  sc.mss = cfg_.mss;
  sc.agg = agg;
  sc.ecn = cfg_.ecn;
  sc.pace_always = cfg_.pace_all;
  sc.start_time = start;
  if (kind == ClassKind::kFinite) {
    sc.transfer_units = tcp::bytes_to_units(bytes, cfg_.mss, agg);
  } else if (kind == ClassKind::kOnOff) {
    sc.app_limited = true;
  }

  tcp::TcpReceiver* receiver =
      receivers_.emplace(sched_, server, client.id(), flow).second;
  tcp::TcpSender* sender =
      senders_.emplace(sched_, client, sc, ccas_.make(cca_kind, cp)).second;
  FlowInstance& inst = *flows_.emplace().second;
  inst.sender = sender;
  inst.receiver = receiver;
  inst.owner = this;
  inst.side = side;
  inst.start_time = start;
  if (tc != nullptr) {
    inst.traffic = tc;
    inst.cls = ci;
    inst.kind = kind;
    inst.transfer_bytes = bytes;
    inst.app_rng = sim::Rng(app_seed);
  }
  if (cfg_.tracer != nullptr) sender->set_tracer(cfg_.tracer);
  if (metrics_ != nullptr) sender->set_metrics(metrics_);
  sender->set_scoreboard_ledger(&scoreboard_ledger_);
  client.register_endpoint(flow, sender);
  server.register_endpoint(flow, receiver);

  // Paper elephants emit no kFlowStart: their traces predate the workload
  // records, and every trace record is part of the determinism digest.
  if (tc != nullptr && cfg_.tracer != nullptr) {
    trace::TraceRecord r;
    r.t = start;
    r.type = trace::RecordType::kFlowStart;
    r.flow = flow;
    r.v0 = ci;
    r.v1 = static_cast<double>(bytes);
    r.v2 = side;
    cfg_.tracer->record(r);
  }

  if (kind == ClassKind::kFinite) {
    sender->set_on_complete(&FlowFactory::flow_complete_thunk, &inst);
  } else if (kind == ClassKind::kOnOff) {
    sender->set_on_app_idle(&FlowFactory::app_idle_thunk, &inst);
  }

  sender->start();
  if (kind == ClassKind::kOnOff) {
    // First burst; held by the sender until start_time.
    sender->offer_bytes(bytes);
  }
  return inst;
}

void FlowFactory::flow_complete_thunk(void* ctx) {
  const FlowInstance& f = *static_cast<FlowInstance*>(ctx);
  if (f.owner->cfg_.tracer == nullptr) return;
  trace::TraceRecord r;
  const sim::Time now = f.owner->sched_.now();
  r.t = now;
  r.type = trace::RecordType::kFlowEnd;
  r.flow = f.sender->config().flow;
  r.v0 = f.cls;
  r.v1 = static_cast<double>(f.transfer_bytes);
  r.v2 = (now - f.start_time).sec();
  f.owner->cfg_.tracer->record(r);
}

void FlowFactory::app_idle_thunk(void* ctx) {
  auto* f = static_cast<FlowInstance*>(ctx);
  const workload::TrafficClass& tc = *f->traffic;
  const sim::Time think = sim::Time::seconds(f->app_rng.next_exponential(tc.off_mean.sec()));
  // The one-pointer capture stays inside the scheduler callback's inline
  // buffer.
  f->owner->sched_.schedule_in(think, [f] {
    f->sender->offer_bytes(f->traffic->size.sample(f->app_rng));
  });
}

}  // namespace elephant::exp

#include "exp/cell.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/status.hpp"
#include "metrics/fairness.hpp"
#include "metrics/fct.hpp"
#include "trace/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace elephant::exp {

namespace {

/// Bottleneck queue-depth sampling period of a traced run (kQueueDepth).
constexpr sim::Time kQueueDepthInterval = sim::Time::milliseconds(100);

/// Process-lifetime peak resident set in bytes (getrusage ru_maxrss), or 0
/// where the platform doesn't report it. Published as the mem.peak_rss_bytes
/// gauge at run finalization.
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Dumbbell parameters for one cell: the bottleneck knobs plus the RTT
/// rescaling rules, and the topology seed — the first draw the cell takes
/// from its RNG.
net::DumbbellConfig make_dumbbell_config(const ExperimentConfig& cfg, sim::Rng& rng) {
  net::DumbbellConfig topo;
  topo.bottleneck_bps = cfg.bottleneck_bps;
  topo.aqm = cfg.aqm;
  topo.bottleneck_buffer_bytes = static_cast<std::size_t>(cfg.buffer_bytes());
  topo.ecn = cfg.ecn;
  topo.random_loss = cfg.random_loss;
  topo.ge_loss = cfg.ge_loss;
  topo.seed = rng.next_u64();
  // Propagation splits to the paper's 62 ms RTT by default; respect a
  // non-default cfg.rtt by scaling the trunk delay.
  const sim::Time default_rtt = 2 * (topo.client_delay + topo.trunk_delay + topo.server_delay);
  if (cfg.rtt != default_rtt) {
    const sim::Time edge = topo.client_delay + topo.server_delay;
    topo.trunk_delay = cfg.rtt / 2 - edge;
    if (topo.trunk_delay < sim::Time::microseconds(10)) {
      // Tiny RTTs: floor the trunk delay and split whatever half-RTT remains
      // across the edges — clamped so no delay ever goes negative (a
      // negative propagation would schedule events in the past).
      topo.trunk_delay = sim::Time::microseconds(10);
      sim::Time rest = cfg.rtt / 2 - topo.trunk_delay;
      if (rest < sim::Time::microseconds(2)) rest = sim::Time::microseconds(2);
      topo.client_delay = topo.server_delay = rest / 2;
    }
  }
  return topo;
}

/// Everything after the event loop: per-flow results, fairness and
/// utilization, telemetry publication, per-class aggregation, and the
/// post-run invariant checks.
ExperimentResult finalize_experiment(const ExperimentConfig& cfg, sim::Time duration,
                                     FlowFactory& factory, net::Port& bottleneck,
                                     std::uint64_t events_executed,
                                     std::chrono::steady_clock::time_point wall_start) {
  ExperimentResult res;
  res.config = cfg;
  res.n_flows = static_cast<std::uint32_t>(factory.size());
  double side_bps[2] = {0, 0};
  std::vector<double> flow_bps;
  flow_bps.reserve(factory.size());
  for (std::size_t i = 0; i < factory.size(); ++i) {
    const FlowInstance& inst = factory.flow(i);
    FlowResult fr;
    fr.flow = inst.sender->config().flow;
    fr.sender = inst.side;
    fr.cca = inst.sender->cc().name();
    fr.start_s = inst.start_time.sec();
    if (inst.cls >= 0) {
      fr.cls = cfg.workload.classes[static_cast<std::size_t>(inst.cls)].name;
    }
    fr.transfer_bytes = inst.transfer_bytes;
    fr.completed = inst.sender->completed();
    if (fr.completed) {
      fr.fct_s = (inst.sender->completion_time() - inst.start_time).sec();
    }
    // Measure goodput over the flow's own active window: the staggered
    // starts (up to 0.5 s) would otherwise bias late starters low. Finite
    // flows that completed are active only until their last ACK.
    const sim::Time active =
        fr.completed ? inst.sender->completion_time() - inst.start_time
                     : duration - inst.start_time;
    fr.throughput_bps =
        active > sim::Time::zero()
            ? static_cast<double>(inst.receiver->delivered_bytes()) * 8.0 / active.sec()
            : 0.0;
    fr.retx_segments = inst.sender->retx_segments();
    fr.rtos = inst.sender->stats().rtos;
    fr.srtt_ms = inst.sender->rtt().srtt().ms();
    side_bps[inst.side] += fr.throughput_bps;
    res.retx_segments += fr.retx_segments;
    res.rtos += fr.rtos;
    flow_bps.push_back(fr.throughput_bps);
    res.flows.push_back(std::move(fr));
  }
  res.sender_bps[0] = side_bps[0];
  res.sender_bps[1] = side_bps[1];
  res.jain2 = metrics::jain_index(std::span<const double>(side_bps, 2));
  res.utilization = metrics::link_utilization(flow_bps, cfg.bottleneck_bps);
  // Arrivals the port's loss stage dropped never reached the qdisc; they
  // count as early drops of the bottleneck.
  res.bottleneck = bottleneck.qdisc().stats();
  res.bottleneck.dropped_early += bottleneck.arrival_drops();
  res.bottleneck.bytes_dropped += bottleneck.arrival_bytes_dropped();
  res.events_executed = events_executed;
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (cfg.metrics != nullptr) {
    // Run-boundary publication: counters ride the stats the components
    // already keep, so the hot paths paid nothing for them.
    obs::MetricsRegistry& reg = *cfg.metrics;
    const aqm::QueueStats& qs = res.bottleneck;
    reg.counter("queue.enqueued").add(qs.enqueued);
    reg.counter("queue.dequeued").add(qs.dequeued);
    reg.counter("queue.dropped_overflow").add(qs.dropped_overflow);
    reg.counter("queue.dropped_early").add(qs.dropped_early);
    reg.counter("queue.ecn_marked").add(qs.ecn_marked);
    std::uint64_t acks = 0;
    std::uint64_t congestion_events = 0;
    for (std::size_t i = 0; i < factory.size(); ++i) {
      const FlowInstance& inst = factory.flow(i);
      acks += inst.sender->stats().acks_received;
      congestion_events += inst.sender->stats().congestion_events;
    }
    reg.counter("tcp.acks_received").add(acks);
    reg.counter("tcp.congestion_events").add(congestion_events);
    reg.counter("tcp.retx_segments").add(res.retx_segments);
    reg.counter("tcp.rtos").add(res.rtos);
    reg.counter("sim.events").add(res.events_executed);
    reg.counter("runs.completed").add(1);
    if (res.wall_seconds > 0) {
      reg.gauge("sim.sim_s_per_wall_s").set(duration.sec() / res.wall_seconds);
    }
    // Memory telemetry: peak scoreboard footprint across all flows (peaks
    // survive the post-completion release), the flow-state arenas, and the
    // process peak RSS the kernel observed. Gauges, not counters: each run
    // reports its own footprint.
    reg.gauge("mem.scoreboard_peak_bytes")
        .set(static_cast<double>(factory.scoreboard_peak_bytes()));
    reg.gauge("mem.flow_arena_bytes").set(static_cast<double>(factory.arena_bytes()));
    if (const std::uint64_t rss = peak_rss_bytes(); rss > 0) {
      reg.gauge("mem.peak_rss_bytes").set(static_cast<double>(rss));
    }
  }

  if (!cfg.workload.is_paper_default()) {
    // Per-class aggregation: byte shares over the whole run, Jain across the
    // class's flow goodputs, FCT/slowdown percentiles over completed finite
    // flows.
    double total_bytes = 0;
    std::vector<double> class_bytes(cfg.workload.classes.size(), 0.0);
    for (std::size_t i = 0; i < factory.size(); ++i) {
      const FlowInstance& inst = factory.flow(i);
      const auto delivered = static_cast<double>(inst.receiver->delivered_bytes());
      total_bytes += delivered;
      if (inst.cls >= 0) class_bytes[static_cast<std::size_t>(inst.cls)] += delivered;
    }
    // Utilization over per-flow window rates (the legacy definition above)
    // overcounts when short flows burst and leave; for mixed traffic φ is
    // total delivered bytes over the link's capacity for the whole run.
    if (duration > sim::Time::zero() && cfg.bottleneck_bps > 0) {
      res.utilization = total_bytes * 8.0 / (duration.sec() * cfg.bottleneck_bps);
    }
    for (std::size_t ci = 0; ci < cfg.workload.classes.size(); ++ci) {
      const workload::TrafficClass& tc = cfg.workload.classes[ci];
      ClassResult cr;
      cr.name = tc.name;
      std::vector<double> goodputs;
      std::vector<double> fcts;
      std::vector<double> slowdowns;
      for (std::size_t i = 0; i < factory.size(); ++i) {
        const FlowInstance& inst = factory.flow(i);
        if (inst.cls != static_cast<int>(ci)) continue;
        const FlowResult& fr = res.flows[i];
        ++cr.flows;
        goodputs.push_back(fr.throughput_bps);
        if (fr.completed) {
          ++cr.completed;
          fcts.push_back(fr.fct_s);
          // fct_slowdown reports degenerate inputs (zero-byte transfers,
          // unset bottleneck) as NaN; a NaN in the percentile input would
          // poison the sort, so drop those samples here.
          const double sd = metrics::fct_slowdown(fr.fct_s,
                                                  static_cast<double>(fr.transfer_bytes),
                                                  cfg.bottleneck_bps, cfg.rtt.sec());
          if (std::isfinite(sd)) slowdowns.push_back(sd);
        }
      }
      cr.throughput_bps =
          duration > sim::Time::zero() ? class_bytes[ci] * 8.0 / duration.sec() : 0.0;
      cr.share = total_bytes > 0 ? class_bytes[ci] / total_bytes : 0.0;
      cr.jain = metrics::jain_index(goodputs);
      const metrics::FctSummary fs = metrics::fct_summary(fcts);
      cr.fct_mean_s = fs.mean_s;
      cr.fct_p50_s = fs.p50_s;
      cr.fct_p95_s = fs.p95_s;
      cr.fct_p99_s = fs.p99_s;
      cr.slowdown_p50 = metrics::percentile(slowdowns, 0.50);
      cr.slowdown_p95 = metrics::percentile(slowdowns, 0.95);
      cr.slowdown_p99 = metrics::percentile(slowdowns, 0.99);
      res.classes.push_back(std::move(cr));
    }
  }

  auto fail = [&](const std::string& what) {
    throw InvariantViolation("run " + cfg.id() + ": " + what);
  };
  const aqm::QueueStats& qs = res.bottleneck;
  const auto backlog_pkts = static_cast<std::uint64_t>(bottleneck.qdisc().packet_length());
  const auto backlog_bytes = static_cast<std::uint64_t>(bottleneck.qdisc().byte_length());
  // Packet conservation at the bottleneck: every accepted packet either
  // left the queue, was dropped after acceptance (CoDel-style dequeue
  // drops land in dropped_early; FQ-CoDel overflow evicts an already
  // accepted victim into dropped_overflow), or is still queued.
  if (qs.enqueued < qs.dequeued + backlog_pkts ||
      qs.enqueued > qs.dequeued + qs.dropped_early + qs.dropped_overflow + backlog_pkts) {
    fail("bottleneck packet conservation violated: enqueued=" +
         std::to_string(qs.enqueued) + " dequeued=" + std::to_string(qs.dequeued) +
         " early=" + std::to_string(qs.dropped_early) +
         " overflow=" + std::to_string(qs.dropped_overflow) +
         " backlog=" + std::to_string(backlog_pkts));
  }
  // Byte conservation: bytes handed to the link (the port's tx counter)
  // plus the backlog never exceed the accepted bytes, and the gap is
  // bounded by the dropped bytes.
  const std::uint64_t tx = bottleneck.tx_bytes();
  if (qs.bytes_enqueued < tx + backlog_bytes ||
      qs.bytes_enqueued > tx + backlog_bytes + qs.bytes_dropped) {
    fail("bottleneck byte conservation violated: bytes_enqueued=" +
         std::to_string(qs.bytes_enqueued) + " tx_bytes=" + std::to_string(tx) +
         " backlog=" + std::to_string(backlog_bytes) +
         " dropped=" + std::to_string(qs.bytes_dropped));
  }
  for (std::size_t i = 0; i < factory.size(); ++i) {
    const FlowInstance& inst = factory.flow(i);
    const double cwnd = inst.sender->cc().cwnd_segments();
    const double floor = inst.sender->cc().params().min_cwnd_segments;
    if (!(cwnd >= floor - 1e-9) || !std::isfinite(cwnd)) {
      fail("flow " + std::to_string(inst.sender->config().flow) + " cwnd " +
           std::to_string(cwnd) + " below floor " + std::to_string(floor));
    }
    // A finite flow that reports completion must have delivered the whole
    // object to its receiver (byte conservation end to end).
    if (inst.sender->completed() &&
        inst.receiver->delivered_bytes() <
            std::uint64_t{inst.sender->config().transfer_units} *
                inst.sender->config().mss * inst.sender->config().agg) {
      fail("flow " + std::to_string(inst.sender->config().flow) +
           " completed but delivered only " +
           std::to_string(inst.receiver->delivered_bytes()) + " bytes");
    }
  }
  for (const FlowResult& fr : res.flows) {
    if (!(fr.throughput_bps >= 0) || !std::isfinite(fr.throughput_bps)) {
      fail("flow " + std::to_string(fr.flow) + " throughput " +
           std::to_string(fr.throughput_bps) + " is negative or non-finite");
    }
    if (fr.completed && !(fr.fct_s > 0 && std::isfinite(fr.fct_s))) {
      fail("flow " + std::to_string(fr.flow) + " completed with bad FCT " +
           std::to_string(fr.fct_s));
    }
  }

  if (cfg.tracer != nullptr) cfg.tracer->flush();
  return res;
}

}  // namespace

Cell::Cell(const ExperimentConfig& cfg)
    : cfg_(cfg), wall_start_(std::chrono::steady_clock::now()), rng_(cfg_.seed) {
  // Everything below mirrors the historical run_experiment() body exactly —
  // same construction order, same RNG draws — so a Cell-driven run is
  // bit-identical to pre-Cell builds (golden digests pin it).
  const net::DumbbellConfig topo = make_dumbbell_config(cfg_, rng_);
  net_.emplace(sched_, topo);

  // The injector owns the RNG behind probabilistic link perturbations, so it
  // must outlive the scheduler run. Constructed (and the seed stream
  // consumed) only when a plan exists, keeping fault-free runs bit-identical
  // to pre-fault-subsystem results.
  if (!cfg_.fault_plan.empty()) {
    faults_.emplace(sched_, net_->bottleneck(), rng_.next_u64(), cfg_.tracer);
    faults_->install(cfg_.fault_plan);
  }

  duration_ = cfg_.effective_duration();

  if (cfg_.tracer != nullptr) net_->set_tracer(cfg_.tracer);

  // Telemetry wiring: register the run's handles once (this may allocate),
  // then hand the components raw pointers so steady-state updates never
  // touch the registry. The bundles live on the cell for the whole run.
  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *cfg_.metrics;
    sched_metrics_.events_executed = &reg.gauge("sim.events_executed");
    sched_metrics_.heap_depth = &reg.gauge("sim.heap_depth");
    sched_metrics_.heap_peak = &reg.gauge("sim.heap_peak");
    sched_metrics_.run_wall_s = &reg.histogram("prof.sched_run_s");
    sched_.set_metrics(&sched_metrics_);
    queue_metrics_.sojourn_s = &reg.histogram("queue.sojourn_s");
    net_->bottleneck().set_metrics(&queue_metrics_);
    tcp_metrics_.cwnd_segments = &reg.gauge("tcp.cwnd_segments");
    tcp_metrics_.srtt_s = &reg.histogram("tcp.srtt_s");
    prof_run_s_ = &reg.histogram("prof.cell_run_s");
    prof_finalize_s_ = &reg.histogram("prof.cell_finalize_s");
  }

  // All flows — paper elephants or a full WorkloadSpec mix — come from the
  // factory; it must outlive the run (finite flows' completion callbacks
  // point into it).
  factory_.emplace(sched_, *net_, cfg_, rng_,
                   cfg_.metrics != nullptr ? &tcp_metrics_ : nullptr);

  // Fairness-episode sampling reads flows and the bottleneck qdisc but never
  // schedules anything, so constructing the probe is digest-neutral.
  if (cfg_.episodes.enabled && cfg_.episodes.valid()) {
    probe_.emplace(cfg_, *factory_, net_->bottleneck(),
                   faults_ ? &*faults_ : nullptr);
  }

  if (cfg_.metrics != nullptr) {
    cfg_.metrics->histogram("prof.cell_setup_s")
        .record(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
                .count());
  }
}

sim::Scheduler::StopReason Cell::run_chunk(std::uint64_t max_events, sim::Time deadline) {
  sim::Scheduler::RunLimits limits;
  limits.max_events = max_events;
  return sched_.run_until(deadline, limits);
}

ExperimentResult Cell::run_to_completion() {
  const auto throw_on_budget = [this](sim::Scheduler::StopReason stop) {
    if (stop == sim::Scheduler::StopReason::kEventBudget ||
        stop == sim::Scheduler::StopReason::kWallBudget) {
      const bool events = stop == sim::Scheduler::StopReason::kEventBudget;
      throw RunTimeout("run " + cfg_.id() + " exceeded its " +
                       (events ? "event budget (" + std::to_string(cfg_.max_events) +
                                     " events)"
                               : "wall budget (" + std::to_string(cfg_.max_wall_seconds) +
                                     " s)") +
                       " at t=" + sched_.now().to_string());
    }
  };

  // Observers sample between scheduler calls: each step runs to the next
  // boundary (episode window, queue-depth tick, or the duration), so an
  // observed run executes exactly the events an unobserved one does. With
  // no observer this is one run_until(duration) call. The watchdog budgets
  // are carried across steps so their collective meaning is unchanged.
  {
    obs::ScopedTimer run_timer(prof_run_s_);
    const bool ticks = cfg_.tracer != nullptr;
    bool episodes_open = probe_.has_value();
    const sim::Time window = sim::Time::seconds(cfg_.episodes.window_s);
    sim::Time next_window = episodes_open ? window : sim::Time::max();
    sim::Time next_tick = ticks ? kQueueDepthInterval : sim::Time::max();
    if (episodes_open) probe_->sample(sim::Time::zero());  // baseline
    const auto run_start = std::chrono::steady_clock::now();
    for (;;) {
      sim::Scheduler::RunLimits limits;
      if (cfg_.max_events > 0) {
        const std::uint64_t used = sched_.executed_events();
        limits.max_events = cfg_.max_events > used ? cfg_.max_events - used : 1;
      }
      if (cfg_.max_wall_seconds > 0) {
        const double rest =
            cfg_.max_wall_seconds -
            std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
                .count();
        limits.max_wall_seconds = rest > 0.01 ? rest : 0.01;
      }
      const sim::Time episode_end = std::min(duration_, next_window);
      const sim::Time boundary = std::min(episode_end, next_tick);
      const auto stop = sched_.run_until(boundary, limits);
      throw_on_budget(stop);
      const bool exhausted = stop == sim::Scheduler::StopReason::kQueueExhausted;
      if (boundary == next_tick) {
        net_->bottleneck().trace_queue_depth();
        next_tick += kQueueDepthInterval;
      }
      // Episode sampling stops at the first window boundary after the event
      // queue drains; queue-depth ticks continue to the duration.
      if (episodes_open && boundary == episode_end) {
        probe_->sample(boundary);
        if (exhausted || boundary >= duration_) {
          probe_->finish(boundary);
          episodes_open = false;
          next_window = sim::Time::max();
        } else {
          next_window += window;
        }
      }
      // Stop at the duration, or once no observer has anything left to sample.
      if (boundary >= duration_ || (!ticks && !episodes_open)) break;
    }
  }
  ExperimentResult res = finalize();
  // A full run in which no flow delivered a byte measured nothing: with every
  // rate at 0, Jain's index reads 1.0 and the dead cell would average in as
  // fair. Checked here, not in finalize(): a caller stepping the cell with
  // run_chunk() may finalize before the first delivery.
  bool delivered = false;
  for (std::size_t i = 0; i < factory_->size() && !delivered; ++i) {
    delivered = factory_->flow(i).receiver->delivered_bytes() > 0;
  }
  if (!delivered) {
    throw InvariantViolation("run " + cfg_.id() + ": no flow delivered a byte in " +
                             duration_.to_string());
  }
  return res;
}

ExperimentResult Cell::finalize() {
  obs::ScopedTimer finalize_timer(prof_finalize_s_);
  ExperimentResult res =
      finalize_experiment(cfg_, duration_, *factory_, net_->bottleneck(),
                                  sched_.executed_events(), wall_start_);
  if (probe_) {
    res.episodes = probe_->episodes();
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("episodes.count").add(res.episodes.size());
      for (const obs::Episode& e : res.episodes) {
        cfg_.metrics->histogram("episodes.worst_jain").record(e.worst_jain);
        cfg_.metrics->histogram("episodes.duration_s").record(e.end_s - e.start_s);
      }
    }
  }
  return res;
}

}  // namespace elephant::exp

// End-to-end and per-layer benchmark over the paper matrix and a many-flow
// cell. See README.md in this directory for the workloads, the metric map and
// how to run it.
//
// Usage:
//   perfbench --workload <matrix-hibw|matrix-lowbw|manyflow-10g> --seed N
//             --seconds S --trace 0|1 [--tiny]
//   perfbench --self-test digest
//
// Every cell is driven through the public exp::Cell API on this one thread
// (no result cache, no sweep pool). The cell list is repeated in passes until
// the time budget is spent; every timed quantity is the cell's best across
// passes, then summed or ranked, because single passes on a shared host swing
// far more than per-cell minima do. Every pass re-checks each cell's
// exp::metrics_digest against the first pass: a cell that throws or drifts
// counts as failed and the command exits nonzero.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aqm/factory.hpp"
#include "cca/congestion_control.hpp"
#include "exp/cell.hpp"
#include "exp/config.hpp"
#include "exp/result_digest.hpp"
#include "exp/runner.hpp"
#include "metrics/fct.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "workload/workload.hpp"

namespace {

using namespace elephant;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

exp::ExperimentConfig paper_cell(double bps, cca::CcaKind c1, cca::CcaKind c2,
                                 aqm::AqmKind aqm, double bdp, double seconds,
                                 std::uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.cca1 = c1;
  cfg.cca2 = c2;
  cfg.aqm = aqm;
  cfg.buffer_bdp = bdp;
  cfg.bottleneck_bps = bps;
  cfg.duration = sim::Time::seconds(seconds);
  cfg.seed = seed;
  return cfg;
}

// The paper's rows at the given rates and buffers: 9 CCA pairs x 3 AQMs each,
// with the Table 2 flow counts and default aggregation, shortened runs.
std::vector<exp::ExperimentConfig> matrix(const std::vector<double>& rates,
                                          const std::vector<double>& bdps, double seconds,
                                          std::uint64_t seed) {
  std::vector<exp::ExperimentConfig> cells;
  for (const double bps : rates) {
    for (const auto& [c1, c2] : exp::paper_cca_pairs()) {
      for (const aqm::AqmKind aqm : exp::paper_aqms()) {
        for (const double bdp : bdps) {
          cells.push_back(paper_cell(bps, c1, c2, aqm, bdp, seconds,
                                     sim::derive_seed(seed, cells.size() + 1)));
        }
      }
    }
  }
  return cells;
}

// The BM_ManyFlowCell/100k shape: finite CUBIC flows started over most of the
// run through a 10G FIFO bottleneck at aggregation 1.
std::vector<exp::ExperimentConfig> manyflow(std::uint32_t flows, double seconds, int cells,
                                            std::uint64_t seed) {
  std::vector<exp::ExperimentConfig> out;
  for (int i = 0; i < cells; ++i) {
    exp::ExperimentConfig cfg =
        paper_cell(10e9, cca::CcaKind::kCubic, cca::CcaKind::kCubic, aqm::AqmKind::kFifo,
                   1.0, seconds, sim::derive_seed(seed, static_cast<std::uint64_t>(i) + 1));
    cfg.aggregation = 1;
    workload::TrafficClass tc;
    tc.name = "manyflow";
    tc.kind = workload::ClassKind::kFinite;
    tc.cca = cca::CcaKind::kCubic;
    tc.count = flows;
    tc.start_window = sim::Time::seconds(seconds * 0.8);
    tc.size = workload::SizeSpec::fixed(std::max(4.0, 600'000.0 / flows) * 8900.0);
    cfg.workload.classes.push_back(tc);
    out.push_back(cfg);
  }
  return out;
}

std::optional<std::vector<exp::ExperimentConfig>> make_workload(const std::string& name,
                                                                std::uint64_t seed, bool tiny) {
  if (name == "matrix-hibw") return matrix({10e9, 25e9}, {1, 8}, tiny ? 0.1 : 1.0, seed);
  if (name == "matrix-lowbw") {
    return matrix({100e6, 500e6, 1e9}, {0.5, 2, 16}, tiny ? 1.0 : 2.0, seed);
  }
  if (name == "manyflow-10g") {
    return tiny ? manyflow(2'000, 0.5, 2, seed) : manyflow(100'000, 2.0, 3, seed);
  }
  return std::nullopt;
}

// ------------------------------------------------------------- cell results

/// Exact, deterministic counts read from the modules' public counters after a
/// cell ran. Identical on every pass of a correct build.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t heap_peak = 0;
  std::uint64_t tx_pkts = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t units_sent = 0;
  std::uint64_t retx_units = 0;
  std::uint64_t acks = 0;
  std::uint64_t rtos = 0;
  std::uint64_t congestion_events = 0;
  double acked_segments = 0;  ///< units delivered x aggregation
  std::uint64_t flows = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t state_bytes = 0;  ///< flow arenas + peak live scoreboard bytes
};

Counts read_counts(exp::Cell& cell, const exp::ExperimentResult& res) {
  Counts c;
  c.events = cell.scheduler().executed_events();
  c.heap_peak = cell.scheduler().peak_pending_events();
  const net::Port& port = cell.network().bottleneck();
  c.tx_pkts = port.tx_packets();
  c.tx_bytes = port.tx_bytes();
  const aqm::QueueStats& q = port.qdisc().stats();
  c.dequeued = q.dequeued;
  c.dropped = q.total_dropped();
  const double agg = cell.config().effective_aggregation();
  exp::FlowFactory& flows = cell.flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const tcp::TcpSenderStats& s = flows.flow(i).sender->stats();
    c.units_sent += s.units_sent;
    c.retx_units += s.retx_units;
    c.acks += s.acks_received;
    c.rtos += s.rtos;
    c.congestion_events += s.congestion_events;
    c.acked_segments += static_cast<double>(s.units_sent - s.retx_units) * agg;
  }
  c.flows = res.n_flows;
  for (const exp::FlowResult& f : res.flows) c.flows_completed += f.completed ? 1 : 0;
  c.state_bytes = flows.arena_bytes() + flows.scoreboard_peak_bytes();
  return c;
}

/// One timed execution of one cell.
struct CellRun {
  double setup_s = 0;
  double loop_s = 0;      ///< traced runs only (untraced: inside run_to_completion)
  double finalize_s = 0;  ///< traced runs only
  double wall_s = 0;      ///< construction through finalize
  double backlog_pkts = 0;  ///< traced runs only: mean sampled bottleneck backlog
  std::uint64_t digest = 0;
  Counts counts;
};

/// Exactly what exp::run_experiment does: Cell(cfg), then run_to_completion().
CellRun run_untraced(const exp::ExperimentConfig& cfg) {
  CellRun r;
  const auto t0 = Clock::now();
  exp::Cell cell(cfg);
  r.setup_s = since(t0);
  const exp::ExperimentResult res = cell.run_to_completion();
  r.wall_s = since(t0);
  r.digest = exp::metrics_digest(res);
  r.counts = read_counts(cell, res);
  return r;
}

/// The traced variant: the event loop is driven in kSlices run_chunk calls so
/// the bottleneck backlog can be sampled at slice boundaries. Re-entering
/// run_until at a boundary schedules nothing, so the digest must equal the
/// untraced run's (the gate checks it).
CellRun run_traced(const exp::ExperimentConfig& cfg) {
  constexpr int kSlices = 20;
  CellRun r;
  const auto t0 = Clock::now();
  exp::Cell cell(cfg);
  r.setup_s = since(t0);
  const auto t1 = Clock::now();
  double backlog = 0;
  for (int k = 1; k <= kSlices; ++k) {
    cell.run_chunk(0, cell.duration() * k / kSlices);
    backlog += static_cast<double>(cell.network().bottleneck().qdisc().packet_length());
  }
  r.loop_s = since(t1);
  const auto t2 = Clock::now();
  const exp::ExperimentResult res = cell.finalize();
  r.finalize_s = since(t2);
  r.wall_s = since(t0);
  r.backlog_pkts = backlog / kSlices;
  r.digest = exp::metrics_digest(res);
  r.counts = read_counts(cell, res);
  return r;
}

// ---------------------------------------------------------- correctness gate

/// Per-cell record across passes: the reference digest from the first
/// successful run, and the best (minimum) of each timed quantity.
struct CellTrack {
  std::optional<std::uint64_t> digest;
  std::optional<Counts> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double best_wall = INFINITY;
  double best_setup = INFINITY;
  double best_traced_wall = INFINITY;
  double best_traced_setup = INFINITY;
  double best_loop = INFINITY;
  double best_finalize = INFINITY;
  double backlog_pkts = 0;
};

/// The digest gate: the first digest becomes the reference, every later one
/// must match it. Returns false (and counts a failure) on a mismatch.
bool gate_digest(CellTrack& t, std::uint64_t digest) {
  if (!t.digest) {
    t.digest = digest;
    return true;
  }
  if (*t.digest == digest) return true;
  ++t.failed;
  return false;
}

void record(CellTrack& t, const exp::ExperimentConfig& cfg, bool traced) {
  ++t.attempted;
  CellRun r;
  try {
    r = traced ? run_traced(cfg) : run_untraced(cfg);
  } catch (const std::exception& e) {
    ++t.failed;
    std::fprintf(stderr, "FAIL %s: %s\n", cfg.id().c_str(), e.what());
    return;
  }
  if (r.counts.events == 0 || r.counts.tx_pkts == 0) {
    ++t.failed;
    std::fprintf(stderr, "FAIL %s: cell executed no work\n", cfg.id().c_str());
    return;
  }
  if (!gate_digest(t, r.digest)) {
    std::fprintf(stderr, "FAIL %s: metrics digest %016llx != first pass %016llx\n",
                 cfg.id().c_str(), static_cast<unsigned long long>(r.digest),
                 static_cast<unsigned long long>(*t.digest));
    return;
  }
  if (!t.counts) t.counts = r.counts;
  if (traced) {
    t.best_traced_wall = std::min(t.best_traced_wall, r.wall_s);
    t.best_traced_setup = std::min(t.best_traced_setup, r.setup_s);
    t.best_loop = std::min(t.best_loop, r.loop_s);
    t.best_finalize = std::min(t.best_finalize, r.finalize_s);
    t.backlog_pkts = r.backlog_pkts;
  } else {
    t.best_wall = std::min(t.best_wall, r.wall_s);
    t.best_setup = std::min(t.best_setup, r.setup_s);
  }
}

// ------------------------------------------------------------ layer kernels
//
// Each kernel drives one module through its public API with a shape read from
// the workload's own counts, repeats kKernelReps times and keeps the best.

constexpr int kKernelReps = 3;

/// Kernel outputs land here so the optimizer cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

template <typename F>
double best_of(F&& body) {
  double best = INFINITY;
  for (int i = 0; i < kKernelReps; ++i) {
    const auto t0 = Clock::now();
    body();
    best = std::min(best, since(t0));
  }
  return best;
}

/// Table of pseudo-random draws made outside the timed region.
std::vector<std::uint64_t> draws(std::uint64_t seed, std::uint64_t bound) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> v(4096);
  for (auto& x : v) x = rng.next_below(bound);
  return v;
}

struct Churn {
  sim::Scheduler* sched = nullptr;
  const std::vector<std::uint64_t>* delays = nullptr;
  std::size_t next = 0;
};

void churn_arm(Churn* c) {
  const std::uint64_t d = (*c->delays)[c->next++ & 4095] + 1;
  c->sched->schedule_in(sim::Time::nanoseconds(static_cast<std::int64_t>(d)),
                        [c] { churn_arm(c); });
}

/// Scheduler::schedule_at + run_until churn at a constant heap depth: every
/// fired event schedules one successor at a random later instant.
double sched_kernel_ns(std::uint64_t heap_depth, std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 1'000'000;
  const std::uint64_t depth = std::max<std::uint64_t>(heap_depth, 1);
  const auto delays = draws(seed, depth * 1000);
  const double best = best_of([&] {
    sim::Scheduler sched;
    Churn c{&sched, &delays, 0};
    for (std::uint64_t i = 0; i < depth; ++i) churn_arm(&c);
    sim::Scheduler::RunLimits limits;
    limits.max_events = kEvents;
    sched.run_until(sim::Time::max(), limits);
  });
  // Pre-filling is part of each repetition; it is depth inserts against
  // kEvents fire+insert pairs, so it is folded into the per-event figure.
  return best * 1e9 / static_cast<double>(kEvents + depth);
}

struct QdiscShape {
  std::size_t limit_bytes = 0;
  std::uint32_t flows = 1;
  std::uint32_t unit_bytes = 8900;
  std::uint32_t unit_segments = 1;
  std::size_t backlog_pkts = 1;
  double rate_bps = 1e9;
};

/// QueueDisc::enqueue/dequeue with the workload's flow count, unit size and
/// standing backlog; the clock advances at the bottleneck's delivered rate
/// so time-based AQMs (CoDel sojourn, RED idle decay) see realistic ages.
double qdisc_kernel_ns(aqm::AqmKind kind, const QdiscShape& s, std::uint64_t seed) {
  constexpr std::uint64_t kPackets = 500'000;
  constexpr std::uint64_t kStride = 16;
  const sim::Time step = sim::Time::seconds(kStride * s.unit_bytes * 8.0 / s.rate_bps);
  std::uint64_t sink = 0;
  const double best = best_of([&] {
    sim::Scheduler sched;
    const auto qd = aqm::make_queue_disc(kind, sched, s.limit_bytes, seed);
    std::uint64_t seq = 0;
    const auto packet = [&] {
      net::Packet p;
      p.flow = static_cast<net::FlowId>(seq % s.flows);
      p.seq = seq++;
      p.segments = s.unit_segments;
      p.size = s.unit_bytes;
      return p;
    };
    for (std::size_t i = 0; i < s.backlog_pkts; ++i) qd->enqueue(packet());
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      if (i % kStride == 0) sched.run_until(sched.now() + step);
      qd->enqueue(packet());
      while (qd->packet_length() > s.backlog_pkts) {
        const auto out = qd->dequeue();
        if (!out) break;
        sink += out->size;
      }
    }
  });
  g_sink = g_sink + sink;
  return best * 1e9 / kPackets;
}

struct CcaShape {
  double mss_bytes = 8900;
  double segs_per_ack = 1;
  double flow_rate_bps = 1e8;  ///< per-flow share of the delivered rate
  double losses_per_ack = 0;   ///< congestion events per ACK
  double base_rtt_s = 0.062;
  double queue_delay_s = 0;
};

/// CongestionControl::on_ack (and on_loss at the workload's congestion-event
/// rate) over a synthetic ACK stream shaped like the workload's flows.
double cca_kernel_ns(cca::CcaKind kind, const CcaShape& s, std::uint64_t seed) {
  constexpr std::uint64_t kAcks = 500'000;
  const double seg_rate = std::max(s.flow_rate_bps / (s.mss_bytes * 8), 1.0);
  const sim::Time gap = sim::Time::seconds(s.segs_per_ack / seg_rate);
  const auto jitter = draws(seed, static_cast<std::uint64_t>(s.queue_delay_s * 1e9) + 1);
  const sim::Time base_rtt = sim::Time::seconds(s.base_rtt_s);
  double sink = 0;
  const double best = best_of([&] {
    cca::CcaParams p;
    p.mss_bytes = s.mss_bytes;
    p.seed = seed;
    const auto cc = cca::make_cca(kind, p);
    sim::Time now = base_rtt;
    double delivered = 0;
    double round_end = 0;
    double loss_credit = 0;
    for (std::uint64_t i = 0; i < kAcks; ++i) {
      now += gap;
      delivered += s.segs_per_ack;
      cca::AckSample a;
      a.now = now;
      a.rtt = base_rtt + sim::Time::nanoseconds(static_cast<std::int64_t>(jitter[i & 4095]));
      a.min_rtt = base_rtt;
      a.acked_segments = s.segs_per_ack;
      a.inflight_segments = cc->cwnd_segments();
      a.delivered_segments = delivered;
      a.delivery_rate = seg_rate;
      a.round_start = delivered >= round_end;
      if (a.round_start) round_end = delivered + a.inflight_segments;
      cc->on_ack(a);
      loss_credit += s.losses_per_ack;
      if (loss_credit >= 1) {
        loss_credit -= 1;
        cca::LossSample l;
        l.now = now;
        l.lost_segments = s.segs_per_ack;
        l.inflight_segments = cc->cwnd_segments();
        l.delivered_segments = delivered;
        l.new_congestion_event = true;
        cc->on_loss(l);
      }
    }
    sink += cc->cwnd_segments();
  });
  g_sink = g_sink + static_cast<std::uint64_t>(sink);
  return best * 1e9 / kAcks;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string pair_name(cca::CcaKind c1, cca::CcaKind c2) {
  return cca::to_string(c1) + "_vs_" + cca::to_string(c2);
}

// ------------------------------------------------------------- the command

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string self_test;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <matrix-hibw|matrix-lowbw|manyflow-10g> "
               "--seed N --seconds S --trace 0|1 [--tiny]\n"
               "       perfbench --self-test digest\n");
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--self-test") {
      a->self_test = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (!(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty() || !a->self_test.empty();
}

/// The gate must reject a mismatched pair and accept a matching one.
int self_test_digest() {
  exp::ExperimentConfig cfg = paper_cell(100e6, cca::CcaKind::kCubic, cca::CcaKind::kBbrV1,
                                         aqm::AqmKind::kFifo, 1.0, 0.5, 7);
  const exp::ExperimentResult a = exp::run_experiment(cfg);
  exp::ExperimentResult b = a;
  b.flows.at(0).retx_segments += 1;

  CellTrack same;
  const bool same_ok = gate_digest(same, exp::metrics_digest(a)) &&
                       gate_digest(same, exp::metrics_digest(exp::run_experiment(cfg)));
  CellTrack mismatched;
  const bool first_ok = gate_digest(mismatched, exp::metrics_digest(a));
  const bool mismatch_rejected = !gate_digest(mismatched, exp::metrics_digest(b));

  std::printf("self-test digest: rerun accepted=%d, mismatch rejected=%d, failed=%llu\n",
              same_ok ? 1 : 0, mismatch_rejected ? 1 : 0,
              static_cast<unsigned long long>(mismatched.failed));
  return same_ok && first_ok && mismatch_rejected && mismatched.failed == 1 ? 0 : 1;
}

int run(const Args& args) {
  const auto workload = make_workload(args.workload, args.seed, args.tiny);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }
  const std::vector<exp::ExperimentConfig>& cells = *workload;
  std::vector<CellTrack> track(cells.size());

  // The traced run alternates untraced and traced passes (so the tracing
  // overhead compares like with like) and reserves time for the kernels.
  const double kernel_reserve = args.trace ? std::min(3.0, args.seconds * 0.2) : 0.0;
  const double budget = args.seconds - kernel_reserve;
  const auto start = Clock::now();
  int passes = 0;
  double last_pass = 0;
  while (passes < 2 || since(start) + last_pass <= budget) {
    const bool traced = args.trace && passes % 2 == 1;
    const auto p0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) record(track[i], cells[i], traced);
    last_pass = since(p0);
    std::printf("pass %d %s %s s\n", passes, traced ? "traced" : "untraced",
                fmt(last_pass).c_str());
    ++passes;
  }

  // Exact totals over one pass, from the first successful run of each cell.
  Counts tot;
  double sim_seconds = 0;
  double wall = 0;
  double setup = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = sim::kFnvOffset;
  std::vector<double> cell_walls;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellTrack& t = track[i];
    attempted += t.attempted;
    failed += t.failed;
    sim_seconds += cells[i].effective_duration().sec();
    digest = sim::fnv1a_fold(digest, t.digest.value_or(0));
    if (!t.counts || !std::isfinite(t.best_wall)) continue;
    wall += t.best_wall;
    setup += t.best_setup;
    cell_walls.push_back(t.best_wall);
    const Counts& c = *t.counts;
    tot.events += c.events;
    tot.heap_peak = std::max(tot.heap_peak, c.heap_peak);
    tot.tx_pkts += c.tx_pkts;
    tot.tx_bytes += c.tx_bytes;
    tot.dequeued += c.dequeued;
    tot.dropped += c.dropped;
    tot.units_sent += c.units_sent;
    tot.retx_units += c.retx_units;
    tot.acks += c.acks;
    tot.rtos += c.rtos;
    tot.congestion_events += c.congestion_events;
    tot.acked_segments += c.acked_segments;
    tot.flows += c.flows;
    tot.flows_completed += c.flows_completed;
    tot.state_bytes += c.state_bytes;
  }

  std::printf("workload %s seed %llu cells %zu passes %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), cells.size(), passes);
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  std::printf("exact sim.events=%llu net.bottleneck_tx_pkts=%llu tcp.acks=%llu "
              "workload.flows_completed=%llu\n",
              static_cast<unsigned long long>(tot.events),
              static_cast<unsigned long long>(tot.tx_pkts),
              static_cast<unsigned long long>(tot.acks),
              static_cast<unsigned long long>(tot.flows_completed));
  std::printf("failed_frac %s (failed %llu of %llu cell runs)\n",
              fmt(attempted ? static_cast<double>(failed) / attempted : 1.0).c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("percentiles over %zu per-cell bests\n", cell_walls.size());

  std::vector<Metric> m;
  if (!args.trace) {
    m = {{"wall_s", wall, "s"},
         {"setup_s", setup, "s"},
         {"sim_s_per_wall_s", wall > 0 ? sim_seconds / wall : 0, "s/s"},
         {"cell_wall_s_p50", metrics::percentile(cell_walls, 0.5), "s"},
         {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  } else {
    double t_wall = 0, t_setup = 0, t_loop = 0, t_fin = 0;
    std::map<std::string, double> aqm_s;
    std::map<std::string, double> pair_s;
    for (const aqm::AqmKind k : exp::paper_aqms()) aqm_s[aqm::to_string(k)] = 0;
    for (const auto& [c1, c2] : exp::paper_cca_pairs()) {
      pair_s[pair_name(c1, c2)] = 0;
    }
    std::map<aqm::AqmKind, std::pair<double, int>> backlog;  // sum, cells
    std::map<aqm::AqmKind, std::pair<double, int>> limit;
    double flows_sum = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellTrack& t = track[i];
      if (!t.counts || !std::isfinite(t.best_traced_wall) || !std::isfinite(t.best_wall)) {
        continue;
      }
      t_wall += t.best_traced_wall;
      t_setup += t.best_traced_setup;
      t_loop += t.best_loop;
      t_fin += t.best_finalize;
      aqm_s[aqm::to_string(cells[i].aqm)] += t.best_wall;
      pair_s[pair_name(cells[i].cca1, cells[i].cca2)] += t.best_wall;
      auto& b = backlog[cells[i].aqm];
      b.first += t.backlog_pkts;
      b.second += 1;
      auto& l = limit[cells[i].aqm];
      l.first += cells[i].buffer_bytes();
      l.second += 1;
      flows_sum += static_cast<double>(t.counts->flows);
    }
    const double n_ok = std::max<double>(1, static_cast<double>(cell_walls.size()));
    const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const auto mean_of = [&](const std::map<aqm::AqmKind, std::pair<double, int>>& by,
                             aqm::AqmKind k) {
      double sum = 0;
      int n = 0;
      const auto it = by.find(k);
      if (it != by.end()) {
        sum = it->second.first;
        n = it->second.second;
      } else {  // the workload never runs this AQM: size from all its cells
        for (const auto& [kind, v] : by) {
          sum += v.first;
          n += v.second;
        }
      }
      return per(sum, n);
    };

    m = {{"cell_wall_s_p90", metrics::percentile(cell_walls, 0.9), "s"},
         {"exp.setup_s", t_setup, "s"},
         {"exp.loop_s", t_loop, "s"},
         {"exp.finalize_s", t_fin, "s"},
         {"sim.events", static_cast<double>(tot.events), "count"},
         {"sim.heap_peak", static_cast<double>(tot.heap_peak), "count"},
         {"sim.ns_per_event", per(t_loop * 1e9, tot.events), "ns"},
         {"net.bottleneck_tx_pkts", static_cast<double>(tot.tx_pkts), "count"},
         {"net.ns_per_bottleneck_pkt", per(t_loop * 1e9, tot.tx_pkts), "ns"},
         {"aqm.drop_frac", per(tot.dropped, tot.dequeued + tot.dropped), "frac"},
         {"tcp.units_sent", static_cast<double>(tot.units_sent), "count"},
         {"tcp.acks", static_cast<double>(tot.acks), "count"},
         {"tcp.rtos", static_cast<double>(tot.rtos), "count"},
         {"tcp.ns_per_ack", per(t_loop * 1e9, tot.acks), "ns"},
         {"tcp.retx_frac", per(tot.retx_units, tot.units_sent), "frac"},
         {"workload.flows", static_cast<double>(tot.flows), "count"},
         {"workload.flows_completed", static_cast<double>(tot.flows_completed), "count"},
         {"workload.bytes_per_flow", per(tot.state_bytes, tot.flows), "B"},
         {"bench.trace_overhead_frac", per(t_wall, wall) - 1.0, "frac"}};
    for (const auto& [k, v] : aqm_s) m.push_back({"aqm." + k + ".cell_s", v, "s"});
    for (const auto& [k, v] : pair_s) m.push_back({"cca.pair." + k + ".cell_s", v, "s"});

    // Kernels, shaped from this workload's counts.
    const double rate_bps = per(tot.tx_bytes * 8.0, sim_seconds);
    const double unit_bytes = per(tot.tx_bytes, tot.tx_pkts);
    const double mean_flows = flows_sum / n_ok;
    std::uint64_t kseed = sim::derive_seed(args.seed, 0x6b65726e656cULL);
    m.push_back({"sim.kernel_ns_per_event", sched_kernel_ns(tot.heap_peak, kseed++), "ns"});
    for (const aqm::AqmKind k : exp::paper_aqms()) {
      QdiscShape s;
      s.limit_bytes = static_cast<std::size_t>(mean_of(limit, k));
      s.flows = static_cast<std::uint32_t>(std::max(1.0, std::round(mean_flows)));
      s.unit_bytes = static_cast<std::uint32_t>(std::max(1.0, std::round(unit_bytes)));
      s.unit_segments = static_cast<std::uint32_t>(
          std::max(1.0, std::round(unit_bytes / cells.front().mss)));
      s.backlog_pkts = static_cast<std::size_t>(std::max(1.0, std::round(mean_of(backlog, k))));
      s.rate_bps = std::max(rate_bps / n_ok, 1e6);
      m.push_back({"aqm." + aqm::to_string(k) + ".kernel_ns_per_pkt",
                   qdisc_kernel_ns(k, s, kseed++), "ns"});
    }
    CcaShape cs;
    cs.mss_bytes = cells.front().mss;
    cs.segs_per_ack = std::max(per(tot.acked_segments, tot.acks), 1.0);
    cs.flow_rate_bps = per(rate_bps, tot.flows);
    cs.losses_per_ack = per(tot.congestion_events, tot.acks);
    cs.base_rtt_s = cells.front().rtt.sec();
    cs.queue_delay_s = per(mean_of(backlog, aqm::AqmKind::kFifo) * unit_bytes * 8.0,
                           rate_bps / n_ok);
    for (const cca::CcaKind k : {cca::CcaKind::kReno, cca::CcaKind::kCubic,
                                 cca::CcaKind::kHtcp, cca::CcaKind::kBbrV1,
                                 cca::CcaKind::kBbrV2}) {
      m.push_back({"cca." + cca::to_string(k) + ".kernel_ns_per_ack",
                   cca_kernel_ns(k, cs, kseed++), "ns"});
    }
  }

  bool finite = true;
  for (const Metric& x : m) {
    std::printf("metric %s %s %s\n", x.name.c_str(), fmt(x.value).c_str(), x.unit.c_str());
    finite = finite && std::isfinite(x.value);
  }
  const bool correct = failed == 0 && finite && !cell_walls.empty();

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    json += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + fmt(m[i].value) +
            ", \"unit\": \"" + m[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: glibc otherwise raises its mmap threshold
  // whenever a large block is freed and trims the heap top on free, so
  // whether a cell's set-up reuses memory or page-faults fresh memory would
  // depend on which cells ran before it. With both pinned, freed memory is
  // kept and reused, and set-up time and peak RSS stop depending on history.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Args args;
  if (!parse(argc, argv, &args)) return usage();
  if (!args.self_test.empty()) {
    if (args.self_test == "digest") return self_test_digest();
    return usage();
  }
  return run(args);
}

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "aqm/fifo.hpp"
#include "exp/cell.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "test_util.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace elephant::fault {
namespace {

using test::make_packet;

TEST(FaultPlan, SignatureIsStableAndSensitive) {
  const auto a = FaultPlan::link_flap(sim::Time::seconds(5), sim::Time::seconds(1));
  const auto b = FaultPlan::link_flap(sim::Time::seconds(5), sim::Time::seconds(1));
  auto c = FaultPlan::link_flap(sim::Time::seconds(5), sim::Time::seconds(2));
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_NE(a.signature(), c.signature());
  EXPECT_EQ(FaultPlan{}.signature(), "");
  EXPECT_EQ(a.signature().size(), 16u);
  // Signatures are journal keys that `--resume` matches, so their exact text
  // is pinned, not just their (in)equality.
  EXPECT_EQ(a.signature(), "d688058d73cc189c");
  FaultPlan mixed = FaultPlan::degrade(sim::Time::seconds(2), 0.35, sim::Time::seconds(3));
  for (const FaultEvent& e :
       FaultPlan::loss_burst(sim::Time::milliseconds(7500), 0.125).events) {
    mixed.add(e);
  }
  mixed.add(FaultPlan::jitter_spike(sim::Time::seconds(9), sim::Time::microseconds(250),
                                    sim::Time::seconds(1))
                .events.front());
  EXPECT_EQ(mixed.signature(), "32ac2b61bd8f303b");
}

TEST(FaultPlan, LinkFlapBuilderSpacesCycles) {
  const auto plan = FaultPlan::link_flap(sim::Time::seconds(2), sim::Time::seconds(1),
                                         /*flaps=*/3);
  ASSERT_EQ(plan.events.size(), 3u);
  // Default period: equal down and up intervals → cycles 2 s apart.
  EXPECT_EQ(plan.events[0].at, sim::Time::seconds(2));
  EXPECT_EQ(plan.events[1].at, sim::Time::seconds(4));
  EXPECT_EQ(plan.events[2].at, sim::Time::seconds(6));
  for (const auto& e : plan.events) {
    EXPECT_EQ(e.kind, FaultKind::kLinkDown);
    EXPECT_EQ(e.duration, sim::Time::seconds(1));
  }
}

TEST(GilbertElliott, FromLossHitsStationaryTarget) {
  for (const double target : {0.001, 0.01, 0.05, 0.2}) {
    const auto p = GilbertElliottParams::from_loss(target, 10);
    ASSERT_TRUE(p.enabled());
    EXPECT_NEAR(p.stationary_loss(), target, 1e-12);
    EXPECT_DOUBLE_EQ(p.p_bad_to_good, 0.1);  // mean burst of 10 packets
  }
  EXPECT_FALSE(GilbertElliottParams::from_loss(0, 10).enabled());
}

constexpr std::uint32_t kPkt = 8900;

/// How many of `n` arrivals the stage drops (seeded outcomes, no hook).
std::uint64_t drops_of(ArrivalLoss& loss, int n) {
  std::uint64_t d = 0;
  for (int i = 0; i < n; ++i) d += loss.drop(kPkt, nullptr) ? 1 : 0;
  return d;
}

TEST(GilbertElliott, EmpiricalLossMatchesStationaryRate) {
  ArrivalLoss loss(0.0, GilbertElliottParams::from_loss(0.05, 8), 42);
  const int n = 200000;
  const std::uint64_t dropped = drops_of(loss, n);
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.05, 0.01);
  EXPECT_EQ(loss.drops(), dropped);
  EXPECT_EQ(loss.bytes_dropped(), dropped * kPkt);
}

TEST(GilbertElliott, LossComesInBursts) {
  // Same stationary rate, very different texture: mean drop-run length must
  // reflect the bad-state sojourn, not the ~1.02 a Bernoulli process gives.
  ArrivalLoss loss(0.0, GilbertElliottParams::from_loss(0.02, 20), 7);
  int runs = 0;
  int losses = 0;
  bool in_run = false;
  for (int i = 0; i < 300000; ++i) {
    if (loss.drop(kPkt, nullptr)) {
      ++losses;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  ASSERT_GT(runs, 0);
  const double mean_run = static_cast<double>(losses) / runs;
  EXPECT_GT(mean_run, 5.0);  // bursty: far above Bernoulli's ≈1
}

TEST(ArrivalLoss, ZeroRatePassesEverything) {
  ArrivalLoss loss(0.0, GilbertElliottParams{}, 1);
  EXPECT_EQ(drops_of(loss, 1000), 0u);
  EXPECT_EQ(loss.drops(), 0u);
}

TEST(ArrivalLoss, DropRateApproximatelyHonored) {
  ArrivalLoss loss(0.1, GilbertElliottParams{}, 1);
  const int n = 20000;
  const std::uint64_t dropped = drops_of(loss, n);
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.1, 0.01);
  EXPECT_EQ(loss.drops(), dropped);
  EXPECT_EQ(loss.bytes_dropped(), dropped * kPkt);
}

TEST(ArrivalLoss, DeterministicPerSeed) {
  auto drops_with_seed = [](std::uint64_t seed) {
    ArrivalLoss loss(0.2, GilbertElliottParams::from_loss(0.05, 4), seed);
    return drops_of(loss, 5000);
  };
  EXPECT_EQ(drops_with_seed(3), drops_with_seed(3));
  EXPECT_NE(drops_with_seed(3), drops_with_seed(4));
}

/// Records every choice point it is asked; flips the ones of kind `flip`.
class Recorder : public sim::ChoiceHook {
 public:
  std::uint32_t choose(sim::ChoiceKind kind, std::uint32_t) override {
    kinds.push_back(kind);
    return kind == flip ? 1 : 0;
  }
  sim::ChoiceKind flip = sim::ChoiceKind::kArrivalLoss;
  std::vector<sim::ChoiceKind> kinds;
};

// The Gilbert–Elliott chain decides first; only a packet it lets through
// takes the one Bernoulli draw. Flipping every Bernoulli branch inverts
// exactly those outcomes and never moves either RNG stream.
TEST(ArrivalLoss, GilbertElliottDecidesBeforeBernoulli) {
  GilbertElliottParams ge = GilbertElliottParams::from_loss(0.1, 4);
  ge.loss_bad = 0.5;  // uncertain in the bad state: a kGeLoss choice point
  ArrivalLoss seeded(0.3, ge, 11);
  ArrivalLoss steered(0.3, ge, 11);
  Recorder hook;
  int ge_losses = 0;
  for (int i = 0; i < 5000; ++i) {
    hook.kinds.clear();
    const bool seeded_lost = seeded.drop(kPkt, nullptr);
    const bool lost = steered.drop(kPkt, &hook);
    ASSERT_FALSE(hook.kinds.empty());
    EXPECT_EQ(hook.kinds.front(), sim::ChoiceKind::kGeTransition);
    EXPECT_EQ(steered.in_bad_state(), seeded.in_bad_state());
    if (hook.kinds.back() == sim::ChoiceKind::kArrivalLoss) {
      EXPECT_NE(lost, seeded_lost);
    } else {
      EXPECT_EQ(hook.kinds.back(), sim::ChoiceKind::kGeLoss);
      EXPECT_TRUE(lost && seeded_lost) << "no Bernoulli draw means the chain dropped it";
      ++ge_losses;
    }
  }
  EXPECT_GT(ge_losses, 0);
}

/// Collects the sequence numbers a port delivers.
struct SeqSink : net::Node {
  SeqSink() : Node(9, "sink") {}
  void receive(net::Packet&& p) override { seqs.push_back(p.seq); }
  std::vector<std::uint64_t> seqs;
};

TEST(ArrivalLoss, SurvivorsComeOutInOrder) {
  sim::Scheduler sched;
  SeqSink sink;
  net::Port port(sched, std::make_unique<aqm::FifoQueue>(sched, std::size_t{1} << 30), 1e9,
                 sim::Time::zero(), "lossy");
  port.connect(&sink);
  port.set_arrival_loss(ArrivalLoss(0.3, GilbertElliottParams{}, 1));
  for (std::uint64_t i = 0; i < 100; ++i) port.send(make_packet(1, i));
  sched.run();
  ASSERT_GT(port.arrival_drops(), 0u);
  EXPECT_EQ(sink.seqs.size(), 100u - port.arrival_drops());
  for (std::size_t i = 1; i < sink.seqs.size(); ++i) EXPECT_GT(sink.seqs[i], sink.seqs[i - 1]);
  EXPECT_EQ(port.qdisc().stats().dropped_early, 0u) << "arrival drops never reach the qdisc";
}

TEST(ArrivalLoss, QueueOverflowCountedApart) {
  sim::Scheduler sched;
  SeqSink sink;
  net::Port port(sched, std::make_unique<aqm::FifoQueue>(sched, 2 * kPkt), 1e3,
                 sim::Time::zero(), "lossy");
  port.connect(&sink);
  port.set_arrival_loss(ArrivalLoss(0.5, GilbertElliottParams{}, 1));
  for (std::uint64_t i = 0; i < 50; ++i) port.send(make_packet(1, i));
  const aqm::QueueStats& qs = port.qdisc().stats();
  EXPECT_GT(qs.dropped_overflow, 0u);
  EXPECT_GT(port.arrival_drops(), 0u);
  EXPECT_EQ(qs.enqueued + qs.dropped_overflow + port.arrival_drops(), 50u);
}

// Run level: RED's own early drops and the arrival stage's drops both land
// in the result's dropped_early (and their bytes in bytes_dropped), while
// the qdisc keeps counting only its own.
TEST(ArrivalLoss, RedEarlyDropsAndArrivalDropsBothCountAsEarly) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kRed, 2.0, 100e6, 10);
  cfg.random_loss = 0.01;
  exp::Cell cell(cfg);
  const exp::ExperimentResult res = cell.run_to_completion();
  const net::Port& bottleneck = cell.network().bottleneck();
  const aqm::QueueStats& red = bottleneck.qdisc().stats();
  ASSERT_GT(red.dropped_early, 0u);
  ASSERT_GT(bottleneck.arrival_drops(), 0u);
  EXPECT_EQ(res.bottleneck.dropped_early, red.dropped_early + bottleneck.arrival_drops());
  EXPECT_EQ(res.bottleneck.bytes_dropped,
            red.bytes_dropped + bottleneck.arrival_bytes_dropped());
  EXPECT_EQ(res.bottleneck.enqueued, red.enqueued);
  EXPECT_EQ(res.bottleneck.dropped_overflow, red.dropped_overflow);
}

TEST(ArrivalLoss, EndToEndLossyExperimentRuns) {
  auto cfg = test::quick_config(cca::CcaKind::kBbrV1, cca::CcaKind::kBbrV1,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 15);
  cfg.random_loss = 0.01;
  const auto res = test::run_uncached(cfg);
  // BBRv1 is loss-blind: still fills most of the link at 1% loss.
  EXPECT_GT(res.utilization, 0.5);
  EXPECT_GT(res.retx_segments, 0u);
}

TEST(ArrivalLoss, LossCrushesRenoMoreThanBbr) {
  auto reno = test::quick_config(cca::CcaKind::kReno, cca::CcaKind::kReno,
                                 aqm::AqmKind::kFifo, 2.0, 100e6, 15);
  reno.random_loss = 0.005;
  auto bbr = reno;
  bbr.cca1 = bbr.cca2 = cca::CcaKind::kBbrV1;
  const auto res_reno = test::run_uncached(reno);
  const auto res_bbr = test::run_uncached(bbr);
  EXPECT_GT(res_bbr.utilization, res_reno.utilization);
}

TEST(FaultConfig, PlanAndGeLossJoinTheExperimentId) {
  auto base = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                 aqm::AqmKind::kFifo, 2.0, 100e6, 5);
  auto flapped = base;
  flapped.fault_plan = FaultPlan::link_flap(sim::Time::seconds(1), sim::Time::seconds(1));
  auto bursty = base;
  bursty.ge_loss = GilbertElliottParams::from_loss(0.01, 10);
  EXPECT_NE(base.id(), flapped.id());
  EXPECT_NE(base.id(), bursty.id());
  EXPECT_NE(flapped.id(), bursty.id());
}

TEST(FaultScenario, LinkFlapCausesRtosThenRecovers) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 20);
  cfg.fault_plan = FaultPlan::link_flap(sim::Time::seconds(5), sim::Time::seconds(2));

  trace::MemorySink sink;
  trace::Tracer tracer(sink);
  tracer.enable_only({trace::RecordType::kFault});
  cfg.tracer = &tracer;

  const auto res = test::run_uncached(cfg);  // invariant checker on by default

  // A 2 s outage at a 62 ms RTT starves every in-flight segment: the
  // senders must fall back to timeout recovery at least once...
  EXPECT_GE(res.rtos, 1u);
  // ...and the 13 s after the link returns are plenty to refill the pipe.
  EXPECT_GT(res.utilization, 0.5);

  int applies = 0;
  int reverts = 0;
  for (const auto& r : sink.records()) {
    if (r.type != trace::RecordType::kFault) continue;
    (r.v2 != 0 ? applies : reverts)++;
    EXPECT_EQ(static_cast<FaultKind>(r.v0), FaultKind::kLinkDown);
  }
  EXPECT_EQ(applies, 1);
  EXPECT_EQ(reverts, 1);
}

TEST(FaultScenario, RateDegradeReducesThroughput) {
  auto clean = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                  aqm::AqmKind::kFifo, 2.0, 100e6, 12);
  auto degraded = clean;
  // 20% of nominal for the middle 8 seconds.
  degraded.fault_plan =
      FaultPlan::degrade(sim::Time::seconds(2), 0.2, sim::Time::seconds(8));
  const auto res_clean = test::run_uncached(clean);
  const auto res_degraded = test::run_uncached(degraded);
  EXPECT_LT(res_degraded.utilization, res_clean.utilization - 0.2);
  EXPECT_GT(res_degraded.utilization, 0.05);  // still moving, not wedged
}

TEST(FaultScenario, MildReorderingCausesNoSpuriousFastRetransmit) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 16.0, 100e6, 10);
  // 1% of packets land ~1.5 ms late: one or two packets pass each straggler,
  // below the 3-dupACK fast-retransmit threshold. With a deep (16 BDP)
  // buffer there is no congestive loss either, so any retransmission would
  // be a spurious reaction to reordering.
  FaultEvent e;
  e.at = sim::Time::seconds(1);
  e.kind = FaultKind::kReorder;
  e.value = 0.01;
  e.delay = sim::Time::microseconds(1500);
  cfg.fault_plan.add(e);
  const auto res = test::run_uncached(cfg);
  EXPECT_EQ(res.retx_segments, 0u);
  EXPECT_GT(res.utilization, 0.5);
}

TEST(FaultScenario, DuplicationIsHarmless) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 10);
  FaultEvent e;
  e.at = sim::Time::seconds(1);
  e.kind = FaultKind::kDuplicate;
  e.value = 0.05;
  cfg.fault_plan.add(e);
  const auto res = test::run_uncached(cfg);
  EXPECT_GT(res.utilization, 0.5);
}

TEST(FaultScenario, LossBurstTripsRetransmissions) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 10);
  cfg.fault_plan =
      FaultPlan::loss_burst(sim::Time::seconds(2), 0.3, sim::Time::seconds(2));
  const auto res = test::run_uncached(cfg);
  EXPECT_GT(res.retx_segments, 0u);
}

TEST(FaultScenario, GilbertElliottEndToEndRunsAndLoses) {
  auto cfg = test::quick_config(cca::CcaKind::kBbrV1, cca::CcaKind::kBbrV1,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 10);
  cfg.ge_loss = GilbertElliottParams::from_loss(0.01, 10);
  const auto res = test::run_uncached(cfg);
  EXPECT_GT(res.bottleneck.dropped_early, 0u);
  EXPECT_GT(res.retx_segments, 0u);
  EXPECT_GT(res.utilization, 0.3);  // BBR shrugs off random loss
}

TEST(FaultScenario, FaultFreePlanLeavesRunByteIdentical) {
  // An empty plan must not perturb the RNG stream: results stay identical to
  // a build that never heard of fault injection (cache compatibility).
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 5);
  const auto a = test::run_uncached(cfg);
  const auto b = test::run_uncached(cfg);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.jain2, b.jain2);
}

}  // namespace
}  // namespace elephant::fault

#include "aqm/fq_codel.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "test_util.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace elephant::aqm {
namespace {

using test::make_packet;

FqCodelConfig small_cfg(std::size_t limit = 1 << 24) {
  FqCodelConfig cfg;
  cfg.memory_limit_bytes = limit;
  return cfg;
}

TEST(FqCodel, SingleFlowFifoOrder) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(q.enqueue(make_packet(1, i)));
  for (std::uint64_t i = 0; i < 10; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
}

TEST(FqCodel, RoundRobinInterleavesFlows) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  // 2 flows, 20 packets each; service should alternate rather than drain
  // flow 1 first.
  for (std::uint64_t i = 0; i < 20; ++i) {
    (void)q.enqueue(make_packet(1, i));
    (void)q.enqueue(make_packet(2, 100 + i));
  }
  int first_ten_flow1 = 0;
  for (int i = 0; i < 10; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    if (p->flow == 1) ++first_ten_flow1;
  }
  EXPECT_GT(first_ten_flow1, 2);
  EXPECT_LT(first_ten_flow1, 8);
}

TEST(FqCodel, FairSharesAcrossManyFlows) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  constexpr int kFlows = 8;
  for (std::uint64_t i = 0; i < 50; ++i) {
    for (int f = 1; f <= kFlows; ++f) {
      (void)q.enqueue(make_packet(static_cast<net::FlowId>(f), i));
    }
  }
  std::map<net::FlowId, int> served;
  for (int i = 0; i < kFlows * 20; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++served[p->flow];
  }
  for (const auto& [flow, count] : served) {
    EXPECT_NEAR(count, 20, 2) << "flow " << flow;
  }
}

TEST(FqCodel, OverflowCullsFattestQueue) {
  sim::Scheduler sched;
  FqCodelConfig cfg = small_cfg(10 * 8900);
  sim::Scheduler s2;
  FqCodelQueue q(sched, cfg);
  // Flow 1 hogs the buffer; flow 2 sends one packet. Overflow drops must
  // come from flow 1.
  for (std::uint64_t i = 0; i < 9; ++i) (void)q.enqueue(make_packet(1, i));
  (void)q.enqueue(make_packet(2, 100));
  EXPECT_EQ(q.stats().dropped_overflow, 0u);
  (void)q.enqueue(make_packet(1, 9));  // exceeds the limit
  EXPECT_EQ(q.stats().dropped_overflow, 1u);
  // Flow 2's packet must still be there: drain and look for it.
  bool saw_flow2 = false;
  while (auto p = q.dequeue()) {
    if (p->flow == 2) saw_flow2 = true;
  }
  EXPECT_TRUE(saw_flow2);
}

TEST(FqCodel, NewFlowsGetPriority) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  // An established backlogged flow…
  for (std::uint64_t i = 0; i < 50; ++i) (void)q.enqueue(make_packet(1, i));
  (void)q.dequeue();  // flow 1 is now an "old" flow
  // …then a brand-new flow arrives: it must be served within one quantum's
  // worth of the old flow's service (the old flow's residual deficit may buy
  // it one more packet first).
  (void)q.enqueue(make_packet(2, 500));
  bool served_new = false;
  for (int i = 0; i < 2 && !served_new; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    served_new = p->flow == 2;
  }
  EXPECT_TRUE(served_new);
}

TEST(FqCodel, ActiveFlowCount) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  EXPECT_EQ(q.active_flows(), 0u);
  (void)q.enqueue(make_packet(1, 0));
  (void)q.enqueue(make_packet(2, 0));
  (void)q.enqueue(make_packet(3, 0));
  EXPECT_EQ(q.active_flows(), 3u);
}

TEST(FqCodel, TotalsAreConsistent) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  for (std::uint64_t i = 0; i < 30; ++i) {
    (void)q.enqueue(make_packet(static_cast<net::FlowId>(i % 3 + 1), i));
  }
  EXPECT_EQ(q.packet_length(), 30u);
  EXPECT_EQ(q.byte_length(), 30u * 8900u);
  std::size_t drained = 0;
  while (q.dequeue().has_value()) ++drained;
  EXPECT_EQ(drained, 30u);
  EXPECT_EQ(q.packet_length(), 0u);
  EXPECT_EQ(q.byte_length(), 0u);
}

TEST(FqCodel, CodelDropsPerFlowUnderStandingQueue) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  // Keep a standing queue in one flow while time passes: per-flow CoDel must
  // eventually drop from it.
  for (std::uint64_t i = 0; i < 500; ++i) (void)q.enqueue(make_packet(1, i));
  for (int step = 0; step < 400; ++step) {
    sched.schedule_at(sim::Time::milliseconds(10) * (step + 1), [&, step] {
      (void)q.dequeue();
      (void)q.enqueue(make_packet(1, 1000 + static_cast<std::uint64_t>(step)));
    });
  }
  sched.run();
  EXPECT_GT(q.stats().dropped_early, 0u);
}

TEST(FqCodel, DistinctFlowsHashToDistinctBucketsUsually) {
  sim::Scheduler sched;
  FqCodelQueue q(sched, small_cfg());
  // 64 flows into 1024 buckets: expect nearly all distinct (birthday bound
  // allows a few collisions, active_flows ≥ 60).
  for (std::uint32_t f = 1; f <= 64; ++f) (void)q.enqueue(make_packet(f, 0));
  EXPECT_GE(q.active_flows(), 60u);
}

// ---- Lockstep overflow victims ---------------------------------------------
//
// The reference for the overflow victim is a first-max linear scan over a
// shadow of every bucket's packets and backlog: the fattest bucket, the lowest
// index among equals. The scheduler clock never advances, so CoDel never
// drops and every drop is an overflow cull.

using Victim = std::pair<net::FlowId, std::uint64_t>;  // (flow, seq)

struct ShadowFq {
  ShadowFq(std::uint32_t flows, std::size_t limit)
      : pkts(flows), bytes(flows), limit(limit) {}

  std::vector<Victim> enqueue(std::uint32_t b, const net::Packet& p) {
    pkts[b].push_back(p);
    bytes[b] += p.size;
    total += p.size;
    std::vector<Victim> victims;
    while (total > limit) {
      std::size_t fat = 0;
      for (std::size_t i = 1; i < bytes.size(); ++i) {
        if (bytes[i] > bytes[fat]) fat = i;
      }
      const net::Packet v = pkts[fat].front();
      pkts[fat].pop_front();
      bytes[fat] -= v.size;
      total -= v.size;
      victims.emplace_back(v.flow, v.seq);
    }
    return victims;
  }

  /// The real queue handed `p` to the link: it must be its bucket's head.
  void dequeued(std::uint32_t b, const net::Packet& p) {
    ASSERT_FALSE(pkts[b].empty()) << "dequeued a packet the shadow dropped";
    EXPECT_EQ(pkts[b].front().flow, p.flow);
    EXPECT_EQ(pkts[b].front().seq, p.seq);
    bytes[b] -= pkts[b].front().size;
    total -= pkts[b].front().size;
    pkts[b].pop_front();
  }

  std::vector<std::deque<net::Packet>> pkts;
  std::vector<std::size_t> bytes;
  std::size_t total = 0;
  std::size_t limit;
};

/// An FQ-CoDel queue whose overflow drops are recorded.
struct TracedFq {
  TracedFq(sim::Scheduler& sched, const FqCodelConfig& cfg) : q(sched, cfg) {
    tracer.enable_only({trace::RecordType::kAqmDrop});
    q.set_tracer(&tracer);
  }

  std::vector<Victim> take_victims() {
    tracer.flush();
    std::vector<Victim> out;
    for (const trace::TraceRecord& r : sink.records()) out.emplace_back(r.flow, r.seq);
    sink.clear();
    return out;
  }

  FqCodelQueue q;
  trace::MemorySink sink;
  trace::Tracer tracer{sink};
};

FqCodelConfig lockstep_cfg(std::uint32_t flows) {
  FqCodelConfig cfg;
  cfg.flows = flows;
  cfg.memory_limit_bytes = 8 * 1000;
  return cfg;
}

/// Random traffic over 40 flows, mostly 1000-byte packets so backlogs tie
/// often; seven enqueues in ten, so most enqueues overflow. The queue must
/// match `shadow` on every operation.
void drive(TracedFq& t, ShadowFq& shadow, sim::Rng& rng, int steps) {
  std::uint64_t seq = 0;
  for (int step = 0; step < steps; ++step) {
    if (rng.next_below(10) < 7) {
      const auto flow = static_cast<net::FlowId>(rng.next_below(40));
      const std::uint32_t size = rng.next_below(4) == 0 ? 1500 : 1000;
      net::Packet p = test::make_packet(flow, seq++, size);
      const std::vector<Victim> want = shadow.enqueue(t.q.bucket_of(flow), p);
      EXPECT_TRUE(t.q.enqueue(std::move(p)));
      ASSERT_EQ(t.take_victims(), want) << "step " << step;
    } else {
      const std::optional<net::Packet> out = t.q.dequeue();
      ASSERT_EQ(out.has_value(), shadow.total > 0) << "step " << step;
      if (out) shadow.dequeued(t.q.bucket_of(out->flow), *out);
    }
    ASSERT_EQ(t.q.byte_length(), shadow.total) << "step " << step;
  }
}

class FqCodelLockstep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FqCodelLockstep, OverflowVictimsMatchFirstMaxScan) {
  sim::Scheduler sched;
  const FqCodelConfig cfg = lockstep_cfg(GetParam());
  TracedFq fq(sched, cfg);
  ShadowFq shadow(cfg.flows, cfg.memory_limit_bytes);
  sim::Rng rng(GetParam());
  drive(fq, shadow, rng, 20000);
  EXPECT_GT(fq.q.stats().dropped_overflow, 5000u) << "scenario invalid: too few overflows";
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, FqCodelLockstep, ::testing::Values(1u, 3u, 1000u, 1024u));

}  // namespace
}  // namespace elephant::aqm

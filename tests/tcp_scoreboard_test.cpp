// Lockstep property test for the SoA bitmap Scoreboard against a per-unit
// array-of-structs reference that re-implements the historical
// RingDeque<UnitState> semantics one unit at a time. The SoA layout claims
// bit-identical behavior (same counters, same callback order, same sample
// selection); this test drives both through randomized SACK/loss/RTO
// sequences and through the bitmap's boundary cases — una crossing a 64-unit
// word, ring wrap past 2^20 units (with 64 slots and with the 8-slot
// minimum, where slot and flag-bit indices wrap out of phase), growth from
// 8 to 128 slots with SACK holes, losses and an RTO outstanding, and the
// uint8 retx counter wrapping at 255 (the golden paper-cell trace contains
// such wraps, so saturation would be a behavior change, not a cleanup).

#include "tcp/scoreboard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace elephant::tcp {
namespace {

/// The historical per-unit layout: one struct per outstanding unit, indexed
/// by `abs - una`. Every operation walks units one at a time — the semantics
/// the word-at-a-time scans must reproduce exactly.
class RefScoreboard {
 public:
  [[nodiscard]] std::uint64_t una() const { return una_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  [[nodiscard]] std::uint64_t pipe_units() const { return pipe_; }
  [[nodiscard]] std::uint64_t lost_pending() const { return lost_pending_; }
  [[nodiscard]] std::uint64_t highest_sacked() const { return highest_sacked_; }
  [[nodiscard]] sim::Time latest_sacked_sent_time() const { return latest_sacked_sent_time_; }

  [[nodiscard]] bool is_inflight(std::uint64_t abs) const { return at(abs).inflight; }
  [[nodiscard]] bool is_sacked(std::uint64_t abs) const { return at(abs).sacked; }
  [[nodiscard]] bool is_lost(std::uint64_t abs) const { return at(abs).lost; }
  [[nodiscard]] std::uint8_t retx_of(std::uint64_t abs) const { return at(abs).retx; }

  std::uint8_t record_send(std::uint64_t abs, sim::Time now, double delivered_segments,
                           sim::Time delivered_time_eff) {
    if (abs == next_seq_) {
      units_.emplace_back();
      ++next_seq_;
    } else {
      Unit& u = at(abs);
      u.lost = false;
      ++u.retx;  // uint8: wraps at 256
      if (lost_pending_ > 0) --lost_pending_;
      min_unresolved_ = std::min(min_unresolved_, abs);
    }
    Unit& u = at(abs);
    u.sent_time = now;
    u.delivered_at_send = delivered_segments;
    u.delivered_time_at_send = delivered_time_eff;
    u.inflight = true;
    ++pipe_;
    return u.retx;
  }

  bool advance_una(std::uint64_t ack_to, std::uint64_t* newly, DeliverySample* newest) {
    const bool progressed = ack_to > una_;
    while (una_ < ack_to) {
      const Unit& u = units_.front();
      if (u.inflight) --pipe_;
      if (u.lost && lost_pending_ > 0) --lost_pending_;
      if (!u.delivered_counted) {
        ++*newly;
        newest->consider(u.retx, u.sent_time, u.delivered_at_send, u.delivered_time_at_send);
      }
      units_.pop_front();
      ++una_;
    }
    min_unresolved_ = std::max(min_unresolved_, una_);
    return progressed;
  }

  template <typename OnSack>
  void sack_range(std::uint64_t start, std::uint64_t end, std::uint64_t* newly,
                  DeliverySample* newest, OnSack&& on_sack) {
    const std::uint64_t lo = std::max(start, std::max(una_, min_unresolved_));
    const std::uint64_t hi = std::min(end, next_seq_);
    for (std::uint64_t abs = lo; abs < hi; ++abs) {
      Unit& u = at(abs);
      if (u.sacked) continue;
      u.sacked = true;
      if (u.inflight) {
        u.inflight = false;
        --pipe_;
      }
      if (u.lost) {
        u.lost = false;
        if (lost_pending_ > 0) --lost_pending_;
      }
      if (!u.delivered_counted) {
        u.delivered_counted = true;
        ++*newly;
        newest->consider(u.retx, u.sent_time, u.delivered_at_send, u.delivered_time_at_send);
      }
      if (u.sent_time > latest_sacked_sent_time_) latest_sacked_sent_time_ = u.sent_time;
      if (abs + 1 > highest_sacked_) highest_sacked_ = abs + 1;
      on_sack(abs, u.retx);
    }
  }

  template <typename OnLoss>
  std::uint64_t mark_losses(std::uint32_t reorder_units, OnLoss&& on_loss) {
    if (highest_sacked_ <= una_) return 0;
    const std::uint64_t fack_limit =
        highest_sacked_ > reorder_units ? highest_sacked_ - reorder_units : 0;
    std::uint64_t newly_lost = 0;
    bool prefix_resolved = true;
    for (std::uint64_t abs = std::max(min_unresolved_, una_); abs < fack_limit; ++abs) {
      Unit& u = at(abs);
      if (prefix_resolved) {
        if (u.sacked) {
          min_unresolved_ = abs + 1;
          continue;
        }
        prefix_resolved = false;
      }
      if (u.inflight && u.sent_time <= latest_sacked_sent_time_) {
        u.lost = true;
        u.inflight = false;
        --pipe_;
        ++lost_pending_;
        ++newly_lost;
        on_loss(abs, u.retx);
      }
    }
    return newly_lost;
  }

  std::uint64_t rto_mark_all() {
    lost_pending_ = 0;
    for (std::uint64_t abs = una_; abs < next_seq_; ++abs) {
      Unit& u = at(abs);
      if (u.inflight) {
        u.inflight = false;
        --pipe_;
      }
      if (!u.sacked) {
        u.lost = true;
        ++lost_pending_;
      }
    }
    min_unresolved_ = una_;
    return lost_pending_;
  }

  [[nodiscard]] std::optional<std::uint64_t> pick_retx() {
    if (lost_pending_ == 0) return std::nullopt;
    for (std::uint64_t abs = std::max(min_unresolved_, una_); abs < next_seq_; ++abs) {
      if (at(abs).lost) return abs;
    }
    lost_pending_ = 0;
    return std::nullopt;
  }

 private:
  struct Unit {
    sim::Time sent_time = sim::Time::zero();
    sim::Time delivered_time_at_send = sim::Time::zero();
    double delivered_at_send = 0;
    std::uint8_t retx = 0;
    bool inflight = false;
    bool sacked = false;
    bool lost = false;
    bool delivered_counted = false;
  };

  [[nodiscard]] Unit& at(std::uint64_t abs) { return units_[abs - una_]; }
  [[nodiscard]] const Unit& at(std::uint64_t abs) const { return units_[abs - una_]; }

  std::deque<Unit> units_;
  std::uint64_t una_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pipe_ = 0;
  std::uint64_t lost_pending_ = 0;
  std::uint64_t min_unresolved_ = 0;
  std::uint64_t highest_sacked_ = 0;
  sim::Time latest_sacked_sent_time_ = sim::Time::zero();
};

using Events = std::vector<std::pair<std::uint64_t, unsigned>>;

/// Drives both layouts through the same operation and asserts every
/// observable agrees: return values, counters, callback sequences, and
/// per-unit flags over the live window.
class Lockstep {
 public:
  void send_new(sim::Time now, double delivered, sim::Time dt) {
    const std::uint64_t abs = soa.next_seq();
    ASSERT_EQ(abs, ref.next_seq());
    ASSERT_EQ(soa.record_send(abs, now, delivered, dt), ref.record_send(abs, now, delivered, dt));
    check_scalars();
  }

  /// Retransmits whichever unit both layouts pick (asserting they agree);
  /// no-op if neither has a pending loss.
  void send_retx(sim::Time now, double delivered, sim::Time dt) {
    const auto a = soa.pick_retx();
    const auto b = ref.pick_retx();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) return;
    ASSERT_EQ(*a, *b);
    ASSERT_EQ(soa.record_send(*a, now, delivered, dt), ref.record_send(*a, now, delivered, dt));
    check_scalars();
  }

  void ack(std::uint64_t ack_to) {
    std::uint64_t newly_a = 0;
    std::uint64_t newly_b = 0;
    DeliverySample sa;
    DeliverySample sb;
    ASSERT_EQ(soa.advance_una(ack_to, &newly_a, &sa), ref.advance_una(ack_to, &newly_b, &sb));
    ASSERT_EQ(newly_a, newly_b);
    check_samples(sa, sb);
    check_scalars();
  }

  void sack(std::uint64_t start, std::uint64_t end) {
    std::uint64_t newly_a = 0;
    std::uint64_t newly_b = 0;
    DeliverySample sa;
    DeliverySample sb;
    Events ea;
    Events eb;
    soa.sack_range(start, end, &newly_a, &sa,
                   [&](std::uint64_t abs, std::uint8_t r) { ea.emplace_back(abs, r); });
    ref.sack_range(start, end, &newly_b, &sb,
                   [&](std::uint64_t abs, std::uint8_t r) { eb.emplace_back(abs, r); });
    ASSERT_EQ(newly_a, newly_b);
    ASSERT_EQ(ea, eb);
    check_samples(sa, sb);
    check_scalars();
  }

  void mark_losses(std::uint32_t reorder_units) {
    Events ea;
    Events eb;
    const auto na = soa.mark_losses(
        reorder_units, [&](std::uint64_t abs, std::uint8_t r) { ea.emplace_back(abs, r); });
    const auto nb = ref.mark_losses(
        reorder_units, [&](std::uint64_t abs, std::uint8_t r) { eb.emplace_back(abs, r); });
    ASSERT_EQ(na, nb);
    ASSERT_EQ(ea, eb);
    check_scalars();
  }

  void rto() {
    ASSERT_EQ(soa.rto_mark_all(), ref.rto_mark_all());
    check_scalars();
  }

  void check_scalars() {
    ASSERT_EQ(soa.una(), ref.una());
    ASSERT_EQ(soa.next_seq(), ref.next_seq());
    ASSERT_EQ(soa.pipe_units(), ref.pipe_units());
    ASSERT_EQ(soa.lost_pending(), ref.lost_pending());
    ASSERT_EQ(soa.highest_sacked(), ref.highest_sacked());
    ASSERT_EQ(soa.latest_sacked_sent_time(), ref.latest_sacked_sent_time());
  }

  /// Per-unit flag audit over the whole live window (O(window), so call it
  /// at checkpoints rather than after every operation in the big runs).
  void check_flags() {
    for (std::uint64_t abs = soa.una(); abs < soa.next_seq(); ++abs) {
      ASSERT_EQ(soa.is_inflight(abs), ref.is_inflight(abs)) << "unit " << abs;
      ASSERT_EQ(soa.is_sacked(abs), ref.is_sacked(abs)) << "unit " << abs;
      ASSERT_EQ(soa.is_lost(abs), ref.is_lost(abs)) << "unit " << abs;
      ASSERT_EQ(soa.retx_of(abs), ref.retx_of(abs)) << "unit " << abs;
    }
  }

  Scoreboard soa;
  RefScoreboard ref;

 private:
  static void check_samples(const DeliverySample& a, const DeliverySample& b) {
    ASSERT_EQ(a.valid(), b.valid());
    if (!a.valid()) return;
    ASSERT_EQ(a.sent_time, b.sent_time);
    ASSERT_EQ(a.delivered_at_send, b.delivered_at_send);
    ASSERT_EQ(a.delivered_time_at_send, b.delivered_time_at_send);
  }
};

TEST(TcpScoreboard, RandomizedLockstepAgainstAosReference) {
  sim::Rng rng(0xe1ef4a9700000001ULL);
  Lockstep ls;
  double clock = 0;
  auto now = [&] {
    clock += 1e-5;
    return sim::Time::seconds(clock);
  };

  for (int step = 0; step < 20000 && !testing::Test::HasFatalFailure(); ++step) {
    const std::uint64_t roll = rng.next_below(100);
    const std::uint64_t window = ls.soa.next_seq() - ls.soa.una();
    if (roll < 35 || window == 0) {
      ls.send_new(now(), static_cast<double>(step), sim::Time::seconds(clock - 1e-3));
    } else if (roll < 50) {
      ls.send_retx(now(), static_cast<double>(step), sim::Time::seconds(clock - 1e-3));
    } else if (roll < 75) {
      // SACK a random block, occasionally reaching past next_seq (clamped).
      const std::uint64_t start = ls.soa.una() + rng.next_below(window);
      const std::uint64_t len = 1 + rng.next_below(96);
      ls.sack(start, start + len);
    } else if (roll < 85) {
      ls.mark_losses(static_cast<std::uint32_t>(rng.next_below(8)));
    } else if (roll < 97) {
      ls.ack(ls.soa.una() + rng.next_below(window + 1));
    } else {
      ls.rto();
    }
    if (step % 512 == 0) ls.check_flags();
  }
  ls.check_flags();
}

TEST(TcpScoreboard, UnaCrossesWordBoundaries) {
  Lockstep ls;
  double t = 0;
  for (int i = 0; i < 200; ++i) {
    ls.send_new(sim::Time::seconds(t += 1e-4), i, sim::Time::zero());
  }
  // Partial word, exact word boundary, multi-word span, to-the-end.
  ls.sack(10, 70);  // sets up delivered bits straddling word 0/1
  for (const std::uint64_t ack_to : {37ULL, 64ULL, 65ULL, 128ULL, 191ULL, 200ULL}) {
    ls.ack(ack_to);
    ls.check_flags();
  }
  EXPECT_EQ(ls.soa.pipe_units(), 0u);
}

TEST(TcpScoreboard, RingWrapBeyondTwentyBitSequence) {
  // Stream > 2^20 units through a small window so every slot of the ring is
  // reused thousands of times and slot/word arithmetic sees absolute
  // sequence numbers far above the capacity.
  Lockstep ls;
  constexpr std::uint64_t kTarget = (1ULL << 20) + 257;
  constexpr std::uint64_t kWindow = 48;  // the ring settles at 64 slots: one word
  sim::Rng rng(0xe1ef4a9700000002ULL);
  double t = 0;
  while (ls.soa.next_seq() < kTarget && !testing::Test::HasFatalFailure()) {
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      ls.send_new(sim::Time::seconds(t += 1e-6), 0, sim::Time::zero());
    }
    // Occasionally lose the head of the window to exercise retx across the
    // wrap; otherwise SACK the tail and cumulative-ACK everything.
    if (rng.next_below(8) == 0) {
      ls.sack(ls.soa.una() + kWindow / 2, ls.soa.next_seq());
      ls.mark_losses(3);
      ls.send_retx(sim::Time::seconds(t += 1e-6), 0, sim::Time::zero());
    }
    ls.ack(ls.soa.next_seq());
  }
  ls.check_flags();
  EXPECT_GE(ls.soa.una(), 1ULL << 20);
}

/// Window bytes at ring capacity `cap`: three 8-byte arrays and one retx
/// byte per slot, plus four bitmaps of ceil(cap / 64) words.
std::size_t expected_window_bytes(std::size_t cap) {
  return cap * 25 + 4 * 8 * ((cap + 63) / 64);
}

TEST(TcpScoreboard, GrowsFromEightSlotsWithHolesLossesAndRtoOutstanding) {
  // The head unit is never acknowledged, so the window only grows: each
  // doubling 8 -> 16 -> 32 -> 64 -> 128 re-homes units that are SACKed,
  // marked lost, retransmitted, or RTO-marked, across bitmaps of one word
  // (capacities 8-64) and two words (128).
  Lockstep ls;
  sim::Rng rng(0xe1ef4a9700000003ULL);
  double t = 0;
  auto now = [&] { return sim::Time::seconds(t += 1e-5); };
  std::size_t cap = 8;
  for (const std::uint64_t target : {9ULL, 17ULL, 33ULL, 65ULL, 128ULL}) {
    while (ls.soa.next_seq() - ls.soa.una() < target && !testing::Test::HasFatalFailure()) {
      ls.send_new(now(), static_cast<double>(ls.soa.next_seq()), sim::Time::zero());
      const std::uint64_t window = ls.soa.next_seq() - ls.soa.una();
      switch (rng.next_below(6)) {
        case 0: {  // a SACK block past a hole
          const std::uint64_t start = ls.soa.una() + 1 + rng.next_below(window);
          ls.sack(start, start + 1 + rng.next_below(4));
          break;
        }
        case 1:
          ls.mark_losses(static_cast<std::uint32_t>(rng.next_below(4)));
          break;
        case 2:
          ls.send_retx(now(), 0, sim::Time::zero());
          break;
        default:
          break;
      }
    }
    if (target == 33) ls.rto();  // every non-SACKed unit lost across the 64 grow
    ls.check_flags();
    while (cap < ls.soa.next_seq() - ls.soa.una()) cap *= 2;
    EXPECT_EQ(ls.soa.memory_bytes(), expected_window_bytes(cap)) << "window " << target;
  }
  EXPECT_EQ(cap, 128u);
  // Drain: retransmit everything still lost, SACK it all, then ACK through.
  ls.rto();
  for (int i = 0; i < 256 && ls.soa.lost_pending() > 0; ++i) {
    ls.send_retx(now(), 0, sim::Time::zero());
  }
  ls.sack(ls.soa.una(), ls.soa.next_seq());
  ls.ack(ls.soa.next_seq());
  ls.check_flags();
  EXPECT_EQ(ls.soa.pipe_units(), 0u);
}

TEST(TcpScoreboard, EightSlotWindowSlidesPastTwentyBitSequence) {
  // Windows of 1-8 units keep the ring at its 8-slot minimum, so slot
  // `abs & 7` wraps every 8 units while flag bit `abs & 63` (all in word 0)
  // wraps every 64: the two run out of phase for the whole stream, and
  // windows straddle the 64-unit bit boundary.
  Lockstep ls;
  constexpr std::uint64_t kTarget = (1ULL << 20) + 131;
  sim::Rng rng(0xe1ef4a9700000004ULL);
  double t = 0;
  auto now = [&] { return sim::Time::seconds(t += 1e-6); };
  while (ls.soa.next_seq() < kTarget && !testing::Test::HasFatalFailure()) {
    const std::uint64_t window = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < window; ++i) ls.send_new(now(), 0, sim::Time::zero());
    const std::uint64_t roll = rng.next_below(8);
    if (roll == 0 && window > 3) {
      // Lose the head: SACK the tail, mark, retransmit.
      ls.sack(ls.soa.una() + 1, ls.soa.next_seq());
      ls.mark_losses(2);
      ls.send_retx(now(), 0, sim::Time::zero());
    } else if (roll == 1) {
      ls.rto();
      ls.send_retx(now(), 0, sim::Time::zero());
      ls.check_flags();
    } else if (roll == 2) {
      // Partial cumulative ACK: the next window starts mid-ring.
      ls.ack(ls.soa.una() + rng.next_below(window));
      ls.check_flags();
      ls.rto();
      while (ls.soa.lost_pending() > 0 && !testing::Test::HasFatalFailure()) {
        ls.send_retx(now(), 0, sim::Time::zero());
      }
    }
    ls.ack(ls.soa.next_seq());
  }
  ls.check_flags();
  EXPECT_GE(ls.soa.una(), 1ULL << 20);
  EXPECT_EQ(ls.soa.memory_bytes(), expected_window_bytes(8));
}

TEST(TcpScoreboard, RetxCounterWrapsAt255LikeTheAosLayout) {
  // One unit retransmitted 300 times: the uint8 counter must wrap 255 -> 0,
  // not saturate — the golden paper-cell trace contains such wraps, so a
  // "fix" here silently changes every digest downstream.
  Lockstep ls;
  double t = 0;
  ls.send_new(sim::Time::seconds(t += 1e-4), 0, sim::Time::zero());
  ls.send_new(sim::Time::seconds(t += 1e-4), 0, sim::Time::zero());
  for (int round = 0; round < 300; ++round) {
    ls.rto();
    ls.send_retx(sim::Time::seconds(t += 1e-4), 0, sim::Time::zero());
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(ls.soa.retx_of(ls.soa.una()), static_cast<std::uint8_t>(300 % 256));
  EXPECT_EQ(ls.soa.retx_of(ls.soa.una()), 44);
  ls.check_flags();
}

TEST(TcpScoreboard, ReleaseDropsStorageButKeepsPeak) {
  // Each grow 8 -> 16 -> ... -> 512 makes exactly one allocation of
  // memory_bytes() and frees the previous window; release() frees the last
  // one and keeps the peak. Counted by the test binary's global operator
  // new/delete hook.
  Scoreboard sb;
  EXPECT_EQ(sb.memory_bytes(), 0u);
  std::size_t cap = 0;
  for (std::uint64_t abs = 0; abs < 500; ++abs) {
    const std::size_t bytes_before = sb.memory_bytes();
    const std::uint64_t calls0 = test::alloc_calls();
    const std::uint64_t alloc0 = test::alloc_bytes();
    const std::uint64_t freed0 = test::sized_free_bytes();
    sb.record_send(abs, sim::Time::seconds(static_cast<double>(abs) * 1e-4), 0,
                   sim::Time::zero());
    const std::uint64_t calls = test::alloc_calls() - calls0;
    if (abs == cap) {  // full: grows to max(8, 2 * cap)
      cap = std::max<std::size_t>(8, 2 * cap);
      EXPECT_EQ(calls, 1u) << "grow to " << cap;
      EXPECT_EQ(sb.memory_bytes(), expected_window_bytes(cap));
      EXPECT_EQ(test::alloc_bytes() - alloc0, sb.memory_bytes()) << "grow to " << cap;
      EXPECT_EQ(test::sized_free_bytes() - freed0, bytes_before) << "grow to " << cap;
    } else {
      EXPECT_EQ(calls, 0u) << "unit " << abs;
    }
  }
  EXPECT_EQ(cap, 512u);
  const std::size_t peak = sb.peak_memory_bytes();
  EXPECT_EQ(peak, expected_window_bytes(512));
  EXPECT_EQ(sb.memory_bytes(), peak);

  std::uint64_t newly = 0;
  DeliverySample s;
  sb.advance_una(sb.next_seq(), &newly, &s);
  const std::uint64_t freed0 = test::sized_free_bytes();
  sb.release();
  EXPECT_EQ(test::sized_free_bytes() - freed0, peak);
  EXPECT_EQ(sb.memory_bytes(), 0u);
  EXPECT_EQ(sb.peak_memory_bytes(), peak);
}

}  // namespace
}  // namespace elephant::tcp

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>

#include "sim/time.hpp"

namespace elephant::tcp {

/// Rate/RTT sample source: the most recently sent, never-retransmitted unit
/// delivered by the current ACK (Karn's rule). Ties keep the first unit
/// encountered (strict `>`), which pins the sample to the lowest sequence
/// number among same-instant sends — the order the cumulative scan visits.
struct DeliverySample {
  sim::Time sent_time = sim::Time::zero();
  double delivered_at_send = 0;
  sim::Time delivered_time_at_send = sim::Time::zero();
  bool has_sample = false;  // explicit: packets sent at t=0 are valid too

  void consider(std::uint8_t retx, sim::Time sent, double delivered,
                sim::Time delivered_time) {
    if (retx == 0 && (!has_sample || sent > sent_time)) {
      sent_time = sent;
      delivered_at_send = delivered;
      delivered_time_at_send = delivered_time;
      has_sample = true;
    }
  }
  [[nodiscard]] bool valid() const { return has_sample; }
};

/// Shared accounting for scoreboard window storage across a set of flows.
/// grow()/release() keep `current` exact, so `peak` is the high-water of
/// *concurrently live* window bytes — the number that actually bounds a
/// many-flow cell's memory, since completed flows release their windows.
struct ScoreboardLedger {
  std::size_t current = 0;
  std::size_t peak = 0;
};

/// SACK scoreboard in struct-of-arrays layout with packed flag bitmaps.
///
/// The live window [una_, next_seq_) maps onto a power-of-two ring of at
/// least 8 slots that doubles when full: unit `abs` lives in slot
/// `abs & mask_`, and bit `abs & 63` of word `(abs & mask_) >> 6` is its
/// flag bit. From 64 slots up, a 64-aligned run of sequence numbers is
/// exactly one bitmap word; below 64 the whole window sits in word 0, where
/// its bits stay distinct because the window never exceeds the capacity.
/// Either way loss marking, RTO sweeps, cumulative-ACK resolution, and
/// retransmit picks scan whole words (`std::countr_zero` /
/// `std::popcount`) instead of walking ~40-byte structs. Time/rate fields
/// sit in parallel arrays touched only for the units an ACK actually
/// resolves. Arrays and bitmaps share one allocation, so a short flow's
/// 8-unit window costs 232 bytes in one heap block.
///
/// Flag invariants (hold between calls, relied on by the word scans):
///   - inflight ⇒ ¬sacked ∧ ¬lost   (sacking and loss-marking clear inflight)
///   - lost    ⇒ ¬inflight          (retransmission clears lost, sets inflight)
///   - pipe_units_  == popcount(inflight over [una_, next_seq_))
///   - lost_pending_ counts lost-not-yet-retransmitted units, except a
///     transient overcount after an RTO re-marks already-lost units; all
///     decrements are floored at zero and pick_retx() resets a stale counter.
///   - min_unresolved_ only ever advances over a fully SACKed prefix, so no
///     lost unit is ever below it.
///
/// The arithmetic, scan order, and therefore every emitted trace record are
/// identical to the historical RingDeque<UnitState> array-of-structs layout;
/// golden digests prove it (tests/determinism_digest_test.cpp) and the
/// lockstep property test drives both layouts through randomized
/// SACK/loss/RTO sequences (tests/tcp_scoreboard_test.cpp).
class Scoreboard {
 public:
  Scoreboard() = default;
  Scoreboard(const Scoreboard&) = delete;
  Scoreboard& operator=(const Scoreboard&) = delete;
  ~Scoreboard() { free_window(win_, capacity_); }

  [[nodiscard]] std::uint64_t una() const { return una_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  [[nodiscard]] std::uint64_t pipe_units() const { return pipe_units_; }
  [[nodiscard]] std::uint64_t lost_pending() const { return lost_pending_; }
  [[nodiscard]] std::uint64_t min_unresolved() const { return min_unresolved_; }
  [[nodiscard]] std::uint64_t highest_sacked() const { return highest_sacked_; }
  [[nodiscard]] sim::Time latest_sacked_sent_time() const { return latest_sacked_sent_time_; }

  [[nodiscard]] bool is_inflight(std::uint64_t abs) const { return test(win_.inflight, abs); }
  [[nodiscard]] bool is_sacked(std::uint64_t abs) const { return test(win_.sacked, abs); }
  [[nodiscard]] bool is_lost(std::uint64_t abs) const { return test(win_.lost, abs); }
  [[nodiscard]] bool is_delivered_counted(std::uint64_t abs) const {
    return test(win_.delivered, abs);
  }
  [[nodiscard]] std::uint8_t retx_of(std::uint64_t abs) const { return win_.retx[slot(abs)]; }
  [[nodiscard]] sim::Time sent_time_of(std::uint64_t abs) const {
    return win_.sent_time[slot(abs)];
  }

  /// Record the (re)transmission of unit `abs`. For `abs == next_seq()` this
  /// appends a fresh unit; otherwise `abs` must be marked lost (the only
  /// units pick_retx() returns) and the retransmit clears the mark, bumps
  /// the retx counter (mod-256, matching the historical uint8 wrap — golden
  /// traces contain wraps, so saturating here would drift the digests), and
  /// pulls the scan hint back so loss marking rescans it. Returns the
  /// unit's retx count after the send — the value the flight recorder logs.
  std::uint8_t record_send(std::uint64_t abs, sim::Time now, double delivered_segments,
                           sim::Time delivered_time_eff) {
    const bool is_retx = abs < next_seq_;
    if (!is_retx) {
      assert(abs == next_seq_);
      if (next_seq_ - una_ == capacity_) grow();
      ++next_seq_;
      win_.retx[slot(abs)] = 0;
      assert(!test(win_.inflight, abs) && !test(win_.sacked, abs) && !test(win_.lost, abs) &&
             !test(win_.delivered, abs));
    } else {
      assert(test(win_.lost, abs) && !test(win_.inflight, abs));
      clear(win_.lost, abs);
      ++win_.retx[slot(abs)];  // wraps at 256, as the AoS layout always did
      if (lost_pending_ > 0) --lost_pending_;
      min_unresolved_ = std::min(min_unresolved_, abs);
    }
    const std::uint32_t s = slot(abs);
    win_.sent_time[s] = now;
    win_.delivered_at_send[s] = delivered_segments;
    win_.delivered_time_at_send[s] = delivered_time_eff;
    set(win_.inflight, abs);
    ++pipe_units_;
    return win_.retx[s];
  }

  /// Cumulative-ACK advance to `ack_to` (caller clamps to next_seq()).
  /// Resolves every unit below it word-at-a-time: drops in-flight units from
  /// pipe, cancels pending-lost counts, credits units not yet SACK-delivered
  /// to `*newly` (feeding `newest` in ascending sequence order, as the
  /// per-unit walk did), and wipes the slots for ring reuse. Returns whether
  /// una advanced.
  bool advance_una(std::uint64_t ack_to, std::uint64_t* newly, DeliverySample* newest) {
    assert(ack_to <= next_seq_);
    const bool progressed = ack_to > una_;
    for (std::uint64_t abs = una_; abs < ack_to;) {
      const std::uint64_t chunk_end = std::min(ack_to, (abs | 63) + 1);
      const std::size_t w = word(abs);
      const std::uint64_t base = abs & ~std::uint64_t{63};
      const std::uint64_t m = range_mask(abs - base, chunk_end - base);

      pipe_units_ -= static_cast<std::uint64_t>(std::popcount(win_.inflight[w] & m));
      lost_pending_ -= std::min(
          static_cast<std::uint64_t>(std::popcount(win_.lost[w] & m)), lost_pending_);
      std::uint64_t todo = ~win_.delivered[w] & m;
      *newly += static_cast<std::uint64_t>(std::popcount(todo));
      while (todo != 0) {
        const std::uint64_t a = base + static_cast<unsigned>(std::countr_zero(todo));
        todo &= todo - 1;
        const std::uint32_t s = slot(a);
        newest->consider(win_.retx[s], win_.sent_time[s], win_.delivered_at_send[s],
                         win_.delivered_time_at_send[s]);
      }
      win_.inflight[w] &= ~m;
      win_.sacked[w] &= ~m;
      win_.lost[w] &= ~m;
      win_.delivered[w] &= ~m;
      abs = chunk_end;
    }
    una_ = ack_to;
    min_unresolved_ = std::max(min_unresolved_, una_);
    return progressed;
  }

  /// Apply one SACK block [start, end). Newly SACKed units leave the pipe,
  /// cancel pending retransmits, and count as delivered; fully-SACKed words
  /// are skipped without touching the parallel arrays. `on_sack(abs, retx)`
  /// fires per newly SACKed unit, ascending, after all counters update — the
  /// tracer sees the post-update pipe.
  template <typename OnSack>
  void sack_range(std::uint64_t start, std::uint64_t end, std::uint64_t* newly,
                  DeliverySample* newest, OnSack&& on_sack) {
    // Everything below min_unresolved_ is already SACKed (the scan-hint
    // invariant), so long-established blocks cost nothing to reprocess.
    const std::uint64_t lo = std::max(start, std::max(una_, min_unresolved_));
    const std::uint64_t hi = std::min(end, next_seq_);
    for (std::uint64_t abs = lo; abs < hi;) {
      const std::uint64_t chunk_end = std::min(hi, (abs | 63) + 1);
      const std::size_t w = word(abs);
      const std::uint64_t base = abs & ~std::uint64_t{63};
      const std::uint64_t m = range_mask(abs - base, chunk_end - base);

      std::uint64_t fresh = ~win_.sacked[w] & m;
      while (fresh != 0) {
        const std::uint64_t a = base + static_cast<unsigned>(std::countr_zero(fresh));
        fresh &= fresh - 1;
        const std::uint64_t bit = std::uint64_t{1} << (a & 63);
        win_.sacked[w] |= bit;
        if (win_.inflight[w] & bit) {
          win_.inflight[w] &= ~bit;
          --pipe_units_;
        }
        if (win_.lost[w] & bit) {
          // Was marked lost but arrived after all; cancel the pending retx.
          win_.lost[w] &= ~bit;
          if (lost_pending_ > 0) --lost_pending_;
        }
        const std::uint32_t s = slot(a);
        if (!(win_.delivered[w] & bit)) {
          win_.delivered[w] |= bit;
          ++*newly;
          newest->consider(win_.retx[s], win_.sent_time[s], win_.delivered_at_send[s],
                           win_.delivered_time_at_send[s]);
        }
        if (win_.sent_time[s] > latest_sacked_sent_time_) {
          latest_sacked_sent_time_ = win_.sent_time[s];
        }
        if (a + 1 > highest_sacked_) highest_sacked_ = a + 1;
        on_sack(a, win_.retx[s]);
      }
      abs = chunk_end;
    }
  }

  /// FACK-with-RACK-timing loss marking below the forward-most SACK.
  /// Candidates are in-flight words (`inflight ⇒ ¬sacked ∧ ¬lost`), checked
  /// per-bit against the latest SACKed send time; the scan hint advances
  /// only over the SACKed prefix. `on_loss(abs, retx)` fires per marked
  /// unit, ascending, after counters update. Returns units newly marked.
  template <typename OnLoss>
  std::uint64_t mark_losses(std::uint32_t reorder_units, OnLoss&& on_loss) {
    if (highest_sacked_ <= una_) return 0;
    const std::uint64_t fack_limit =
        highest_sacked_ > reorder_units ? highest_sacked_ - reorder_units : 0;
    std::uint64_t newly_lost = 0;
    // The hint may only advance over a SACKed prefix: lost-but-unsent units
    // below it would otherwise be skipped by pick_retx().
    bool prefix_resolved = true;
    for (std::uint64_t abs = std::max(min_unresolved_, una_); abs < fack_limit;) {
      const std::uint64_t chunk_end = std::min(fack_limit, (abs | 63) + 1);
      const std::size_t w = word(abs);
      const std::uint64_t base = abs & ~std::uint64_t{63};
      const std::uint64_t m = range_mask(abs - base, chunk_end - base);

      if (prefix_resolved) {
        const std::uint64_t not_sacked = ~win_.sacked[w] & m;
        if (not_sacked == 0) {
          min_unresolved_ = chunk_end;
          abs = chunk_end;
          continue;
        }
        const std::uint64_t first =
            base + static_cast<unsigned>(std::countr_zero(not_sacked));
        if (first > abs) min_unresolved_ = first;
        prefix_resolved = false;
      }
      std::uint64_t cand = win_.inflight[w] & m;
      while (cand != 0) {
        const std::uint64_t a = base + static_cast<unsigned>(std::countr_zero(cand));
        cand &= cand - 1;
        const std::uint32_t s = slot(a);
        if (win_.sent_time[s] <= latest_sacked_sent_time_) {
          // FACK rule with RACK-style ordering: at least reorder_units units
          // sent after this one have been SACKed.
          const std::uint64_t bit = std::uint64_t{1} << (a & 63);
          win_.lost[w] |= bit;
          win_.inflight[w] &= ~bit;
          --pipe_units_;
          ++lost_pending_;
          ++newly_lost;
          on_loss(a, win_.retx[s]);
        }
      }
      abs = chunk_end;
    }
    return newly_lost;
  }

  /// RTO: everything in flight is presumed lost; SACKed units are retained
  /// (no reneging model). Recounts lost_pending_ over every non-SACKed unit
  /// — including ones already marked — exactly as the per-unit sweep did.
  std::uint64_t rto_mark_all() {
    lost_pending_ = 0;
    for (std::uint64_t abs = una_; abs < next_seq_;) {
      const std::uint64_t chunk_end = std::min(next_seq_, (abs | 63) + 1);
      const std::size_t w = word(abs);
      const std::uint64_t base = abs & ~std::uint64_t{63};
      const std::uint64_t m = range_mask(abs - base, chunk_end - base);

      const std::uint64_t not_sacked = ~win_.sacked[w] & m;
      pipe_units_ -= static_cast<std::uint64_t>(std::popcount(win_.inflight[w] & m));
      win_.inflight[w] &= ~m;
      win_.lost[w] |= not_sacked;
      lost_pending_ += static_cast<std::uint64_t>(std::popcount(not_sacked));
      abs = chunk_end;
    }
    min_unresolved_ = una_;
    return lost_pending_;
  }

  /// Lowest lost-and-not-yet-retransmitted unit, or nullopt (after zeroing a
  /// stale lost_pending_ counter, so the caller falls through to new data).
  [[nodiscard]] std::optional<std::uint64_t> pick_retx() {
    if (lost_pending_ == 0) return std::nullopt;
    for (std::uint64_t abs = std::max(min_unresolved_, una_); abs < next_seq_;) {
      const std::uint64_t chunk_end = std::min(next_seq_, (abs | 63) + 1);
      const std::size_t w = word(abs);
      const std::uint64_t base = abs & ~std::uint64_t{63};
      const std::uint64_t m = range_mask(abs - base, chunk_end - base);
      const std::uint64_t cand = win_.lost[w] & m;
      if (cand != 0) return base + static_cast<unsigned>(std::countr_zero(cand));
      abs = chunk_end;
    }
    lost_pending_ = 0;  // stale counter; caller falls through to new data
    return std::nullopt;
  }

  /// Drop the window storage after a finite transfer completes (the live
  /// range is empty, so every scan is a no-op afterwards). Grow-only rings
  /// would otherwise pin their peak allocation for the rest of a sweep.
  void release() {
    assert(una_ == next_seq_);
    if (ledger_ != nullptr) ledger_->current -= memory_bytes();
    free_window(win_, capacity_);
    win_ = Window{};
    capacity_ = 0;
    mask_ = 0;
  }

  /// Current heap bytes held by the window: exactly the size of its one
  /// allocation.
  [[nodiscard]] std::size_t memory_bytes() const { return window_bytes(capacity_); }
  /// High-water memory_bytes() over the scoreboard's lifetime (survives
  /// release(), so end-of-run telemetry sees completed flows' peaks).
  [[nodiscard]] std::size_t peak_memory_bytes() const { return peak_bytes_; }

  /// Attach shared live-bytes accounting (null detaches). Attach before the
  /// first send; the current window bytes are folded in immediately.
  void set_ledger(ScoreboardLedger* ledger) {
    ledger_ = ledger;
    if (ledger_ != nullptr) {
      ledger_->current += memory_bytes();
      ledger_->peak = std::max(ledger_->peak, ledger_->current);
    }
  }

 private:
  /// Views into one window allocation, laid out as the members read: the
  /// three 8-byte parallel arrays, the four bitmaps, then the retx bytes.
  /// `sent_time` is the start of the block (null when no window is held).
  struct Window {
    sim::Time* sent_time = nullptr;
    sim::Time* delivered_time_at_send = nullptr;
    double* delivered_at_send = nullptr;  // segments
    std::uint64_t* inflight = nullptr;
    std::uint64_t* sacked = nullptr;
    std::uint64_t* lost = nullptr;       // marked lost, awaiting retransmission
    std::uint64_t* delivered = nullptr;  // counted toward delivered_segments
    std::uint8_t* retx = nullptr;
  };
  static_assert(std::is_trivially_destructible_v<sim::Time>);
  static constexpr std::uint64_t kMinCapacity = 8;

  /// Bitmap words for a ring of `cap` slots. Below 64 slots this is one
  /// word: the live window never exceeds the capacity, so its units' bits
  /// `abs & 63` are distinct and all sit in word 0.
  [[nodiscard]] static std::size_t bitmap_words(std::uint64_t cap) {
    return static_cast<std::size_t>((cap + 63) / 64);
  }
  [[nodiscard]] static std::size_t window_bytes(std::uint64_t cap) {
    return static_cast<std::size_t>(cap) *
               (2 * sizeof(sim::Time) + sizeof(double) + sizeof(std::uint8_t)) +
           bitmap_words(cap) * 4 * sizeof(std::uint64_t);
  }
  /// Construct `n` value-initialized (zero) elements at `*at` and advance it.
  template <typename T>
  static T* carve(std::byte*& at, std::size_t n) {
    auto* first = reinterpret_cast<T*>(at);
    std::uninitialized_value_construct_n(first, n);
    at += n * sizeof(T);
    return std::launder(first);
  }
  /// One zeroed allocation of window_bytes(cap) holding every array.
  [[nodiscard]] static Window alloc_window(std::uint64_t cap) {
    if (cap == 0) return Window{};
    auto* at = static_cast<std::byte*>(::operator new(window_bytes(cap)));
    const auto n = static_cast<std::size_t>(cap);
    const std::size_t words = bitmap_words(cap);
    Window win;
    win.sent_time = carve<sim::Time>(at, n);
    win.delivered_time_at_send = carve<sim::Time>(at, n);
    win.delivered_at_send = carve<double>(at, n);
    win.inflight = carve<std::uint64_t>(at, words);
    win.sacked = carve<std::uint64_t>(at, words);
    win.lost = carve<std::uint64_t>(at, words);
    win.delivered = carve<std::uint64_t>(at, words);
    win.retx = carve<std::uint8_t>(at, n);
    return win;
  }
  static void free_window(const Window& win, std::uint64_t cap) {
    if (win.sent_time != nullptr) ::operator delete(win.sent_time, window_bytes(cap));
  }

  [[nodiscard]] std::uint32_t slot(std::uint64_t abs) const {
    return static_cast<std::uint32_t>(abs & mask_);
  }
  [[nodiscard]] std::size_t word(std::uint64_t abs) const {
    return static_cast<std::size_t>((abs & mask_) >> 6);
  }
  [[nodiscard]] bool test(const std::uint64_t* bm, std::uint64_t abs) const {
    return (bm[word(abs)] >> (abs & 63)) & 1;
  }
  void set(std::uint64_t* bm, std::uint64_t abs) {
    bm[word(abs)] |= std::uint64_t{1} << (abs & 63);
  }
  void clear(std::uint64_t* bm, std::uint64_t abs) {
    bm[word(abs)] &= ~(std::uint64_t{1} << (abs & 63));
  }
  /// Bits [lo, hi) of one word, 0 <= lo < hi <= 64.
  [[nodiscard]] static std::uint64_t range_mask(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t upper = hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
    return upper & ~((std::uint64_t{1} << lo) - 1);
  }

  void grow() {
    const std::size_t bytes_before = memory_bytes();
    const std::uint64_t ncap = std::max(kMinCapacity, capacity_ * 2);
    const std::uint64_t nmask = ncap - 1;
    const Window nwin = alloc_window(ncap);
    for (std::uint64_t abs = una_; abs < next_seq_; ++abs) {
      const std::uint32_t os = slot(abs);
      const std::uint32_t ns = static_cast<std::uint32_t>(abs & nmask);
      nwin.sent_time[ns] = win_.sent_time[os];
      nwin.delivered_time_at_send[ns] = win_.delivered_time_at_send[os];
      nwin.delivered_at_send[ns] = win_.delivered_at_send[os];
      nwin.retx[ns] = win_.retx[os];
      const std::uint64_t bit = std::uint64_t{1} << (abs & 63);
      const std::size_t ow = word(abs);
      const std::size_t nw = static_cast<std::size_t>((abs & nmask) >> 6);
      if (win_.inflight[ow] & bit) nwin.inflight[nw] |= bit;
      if (win_.sacked[ow] & bit) nwin.sacked[nw] |= bit;
      if (win_.lost[ow] & bit) nwin.lost[nw] |= bit;
      if (win_.delivered[ow] & bit) nwin.delivered[nw] |= bit;
    }
    free_window(win_, capacity_);
    win_ = nwin;
    capacity_ = ncap;
    mask_ = nmask;
    peak_bytes_ = std::max(peak_bytes_, memory_bytes());
    if (ledger_ != nullptr) {
      ledger_->current += memory_bytes() - bytes_before;
      ledger_->peak = std::max(ledger_->peak, ledger_->current);
    }
  }

  // Window scalars.
  std::uint64_t una_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pipe_units_ = 0;
  std::uint64_t lost_pending_ = 0;    // lost units not yet retransmitted
  std::uint64_t min_unresolved_ = 0;  // scan hint for loss marking / retx pick
  std::uint64_t highest_sacked_ = 0;  // absolute unit + 1 (0 = none)
  sim::Time latest_sacked_sent_time_ = sim::Time::zero();

  // Ring geometry: power-of-two capacity, 0 or at least kMinCapacity.
  std::uint64_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::size_t peak_bytes_ = 0;
  ScoreboardLedger* ledger_ = nullptr;  ///< optional shared live-bytes account

  // Parallel arrays (slot-indexed) + flag bitmaps (one bit per slot), all in
  // one allocation of memory_bytes().
  Window win_;
};

}  // namespace elephant::tcp

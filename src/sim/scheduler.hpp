#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace elephant::obs {
struct SchedulerMetrics;
}  // namespace elephant::obs

namespace elephant::sim {

class ChoiceHook;

/// Opaque handle to a scheduled one-shot event; used to cancel it.
///
/// Encodes a slot index and that slot's generation. A handle is live exactly
/// while its slot is armed with a matching generation, so cancelling an
/// already-fired, already-cancelled, cleared, or forged id is a true no-op
/// decided in O(1) without any side table.
struct EventId {
  std::uint64_t value = 0;  ///< (generation << 32) | (slot + 1); 0 = invalid
  [[nodiscard]] bool valid() const { return value != 0; }
};

/// Discrete-event scheduler: a time-ordered queue of callbacks, engineered
/// so the steady-state per-event path never touches the allocator.
///
/// - Callbacks are `InplaceCallback`s stored in stable slots recycled
///   through a free list; the common `[this]`-sized captures live inline.
///   Slots live in fixed-size chunks that are added, never moved, so a
///   100k-flow cell's slot storage is many small blocks instead of one
///   multi-megabyte array that is reallocated (and, above the allocator's
///   mmap threshold, page-faulted in afresh) as it grows.
/// - The priority queue is an indexed 4-ary min-heap with back-pointers
///   (a flat per-slot `heap_pos_` array, so sift loops never touch the
///   chunked slots), so cancel() removes its entry directly (no
///   tombstones, no `unordered_set` side table, and pending_events() is
///   just the heap size). Each heap
///   entry carries its own (at, seq) sort key: sift loops compare and move
///   contiguous entries instead of dereferencing into the slot array, whose
///   ~100k scattered Slots would cost a cache miss per comparison in a
///   high-flow-count cell.
/// - Re-armable timers (`TimerHandle`) keep their slot and callback across
///   fires: re-scheduling updates the slot's key and sifts, instead of
///   growing the heap with a cancelled entry plus a fresh allocation.
///
/// ## Same-instant ordering contract
///
/// Events scheduled for the same instant fire in scheduling order: every
/// (re)arm draws a fresh value from a monotone sequence counter, and the
/// heap orders by (at, seq). This FIFO-among-ties behavior is an explicit,
/// documented contract, not an implementation accident:
///
///  - it is what makes whole runs deterministic functions of the seed (the
///    golden-digest tests pin it end to end);
///  - re-arming a timer for the *same* instant still demotes it behind
///    events armed earlier for that instant (the seq is re-drawn);
///  - lazy re-keying (see timer_rearm) never changes fire order — pop_one()
///    re-files stale entries against the slot's authoritative (at, seq)
///    before firing anything;
///  - the model checker's kSchedulerTie choice point branches over exactly
///    this tie set, with the FIFO pick as branch 0, so exploration off
///    reproduces the contract bit-for-bit.
///
/// Debug builds assert, on every fire, that no live same-instant entry with
/// a smaller sequence number was bypassed; a dedicated regression test arms
/// two timers for the same tick and asserts arm-order firing.
class Scheduler {
 public:
  using Callback = InplaceCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Advances only inside run()/run_until().
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must not be in the past).
  EventId schedule_at(Time at, Callback cb);

  /// Schedule `cb` after `delay` from now.
  EventId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled,
  /// or invalid id is a no-op.
  void cancel(EventId id);

  /// True while the event is queued and not cancelled; false once it has
  /// fired, been cancelled, or been dropped by clear().
  [[nodiscard]] bool pending(EventId id) const;

  /// Run until the queue is empty.
  void run();

  /// Run until the queue is empty or simulation time would exceed `deadline`.
  /// On return now() == deadline.
  void run_until(Time deadline);

  /// Watchdog budgets for a bounded run (0 = unlimited). The wall clock is
  /// polled every few thousand events so the check stays off the hot path.
  struct RunLimits {
    std::uint64_t max_events = 0;   ///< executed-event budget for this call
    double max_wall_seconds = 0;    ///< wall-clock budget for this call
  };

  /// Why a bounded run returned.
  enum class StopReason {
    kQueueExhausted,  ///< no events left
    kDeadline,        ///< simulated time reached `deadline`
    kEventBudget,     ///< limits.max_events executed without finishing
    kWallBudget,      ///< limits.max_wall_seconds elapsed without finishing
  };

  /// run_until() with watchdog budgets: a runaway simulation (event storm or
  /// livelock) returns kEventBudget/kWallBudget instead of hanging the
  /// calling worker. now() is NOT advanced to `deadline` on a budget stop.
  StopReason run_until(Time deadline, const RunLimits& limits);

  /// Drop every pending event (used when tearing down a run early).
  /// Outstanding EventIds are invalidated; timers are disarmed but stay
  /// re-armable.
  void clear();

  /// Armed events (exact: cancellation removes eagerly).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// High-water mark of the event heap over the scheduler's life.
  [[nodiscard]] std::size_t peak_pending_events() const { return heap_peak_; }

  /// Attach telemetry gauges, published each time a run()/run_until() call
  /// returns (pull instrumentation — the per-event path is untouched). The
  /// pointed-to handles must outlive the scheduler or be detached with
  /// nullptr. Null (the default) costs one untaken branch per run-loop exit.
  void set_metrics(const obs::SchedulerMetrics* metrics) { metrics_ = metrics; }

  /// Attach a model-checking choice hook (null detaches, the default).
  /// With a hook attached, a fire instant with two or more live entries
  /// becomes a ChoiceKind::kSchedulerTie branch point — the hook picks which
  /// tied event fires first (branch 0 = the FIFO pick). Components reach the
  /// hook through their scheduler (see choice_hook()) for their own choice
  /// points. A null hook costs one untaken branch per event.
  void set_choice_hook(ChoiceHook* hook) { choice_hook_ = hook; }
  [[nodiscard]] ChoiceHook* choice_hook() const { return choice_hook_; }

  /// Digest of the pending-event state (now, each armed slot's identity,
  /// deadline and kind, in arrival order) for explored-state deduplication.
  /// Excludes executed-event and peak counters, and excludes absolute
  /// sequence values (only their relative order matters for behavior).
  [[nodiscard]] std::uint64_t state_hash() const;

  /// A re-armable timer owning one scheduler slot for its whole life.
  ///
  /// The callback is registered once; rearm() then only rewrites the slot's
  /// deadline and re-sifts its heap entry — no allocation, no tombstone, no
  /// callback reconstruction. Used by the RTO, delayed-ACK, pacing and
  /// delay-line timers, i.e. everything that re-schedules per packet. A
  /// TimerHandle must not outlive its scheduler.
  class TimerHandle {
   public:
    TimerHandle() = default;
    TimerHandle(const TimerHandle&) = delete;
    TimerHandle& operator=(const TimerHandle&) = delete;
    ~TimerHandle() { reset(); }

    /// Register the callback and acquire a slot. Call exactly once before
    /// rearm() (reset() allows re-initialization).
    void init(Scheduler& sched, Callback cb) {
      reset();
      sched_ = &sched;
      slot_ = sched.timer_create(std::move(cb));
    }

    /// Release the slot; the handle returns to the uninitialized state.
    void reset() {
      if (sched_ != nullptr) {
        sched_->timer_destroy(slot_);
        sched_ = nullptr;
      }
    }

    /// (Re)schedule the fire time — whether currently idle, pending, or
    /// firing right now. `at` must not be in the past.
    void rearm(Time at) { sched_->timer_rearm(slot_, at); }

    /// Unschedule without releasing the slot. No-op when idle.
    void disarm() {
      if (sched_ != nullptr) sched_->timer_disarm(slot_);
    }

    [[nodiscard]] bool armed() const {
      return sched_ != nullptr && sched_->timer_armed(slot_);
    }
    /// Scheduled fire instant; Time::max() when not armed.
    [[nodiscard]] Time deadline() const {
      return armed() ? sched_->timer_deadline(slot_) : Time::max();
    }
    [[nodiscard]] explicit operator bool() const { return sched_ != nullptr; }

   private:
    Scheduler* sched_ = nullptr;
    std::uint32_t slot_ = 0;
  };

 private:
  friend class TimerHandle;

  static constexpr std::uint32_t kNpos = 0xffffffff;

  enum class SlotState : std::uint8_t {
    kFree,         ///< on the free list
    kOneShot,      ///< armed single-fire event; slot freed when it fires
    kTimerArmed,   ///< timer with a heap entry
    kTimerIdle,    ///< timer waiting for rearm(); owns no heap entry
    kTimerFiring,  ///< mid-callback; the heap entry is parked in place so a
                   ///< rearm from the callback (the dominant pattern) is a
                   ///< single in-place re-key instead of remove + insert
  };

  struct Slot {
    Time at{};
    std::uint64_t seq = 0;           ///< FIFO tie-break, fresh per (re)arm
    std::uint32_t gen = 0;           ///< bumped on free; validates EventIds
    SlotState state = SlotState::kFree;
    InplaceCallback cb;
  };

  // --- timer interface (via TimerHandle) ---
  std::uint32_t timer_create(Callback cb);
  void timer_destroy(std::uint32_t slot);
  void timer_rearm(std::uint32_t slot, Time at);
  void timer_disarm(std::uint32_t slot);
  [[nodiscard]] bool timer_armed(std::uint32_t slot) const {
    return slot_at(slot).state == SlotState::kTimerArmed;
  }
  [[nodiscard]] Time timer_deadline(std::uint32_t slot) const { return slot_at(slot).at; }

  // --- slot management ---
  /// Slots per storage chunk: 512 x 112 B = 56 KiB on x86-64, under glibc's
  /// default 128 KiB mmap threshold, so chunks come from the ordinary heap.
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  [[nodiscard]] Slot& slot_at(std::uint32_t slot) {
    return slot_chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t slot) const {
    return slot_chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  /// Slots ever handed out (armed, idle, or on the free list).
  [[nodiscard]] std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(heap_pos_.size());
  }
  /// Extend the slot range to `count`, adding chunks as needed; new slots
  /// are default (free, generation 0) and sit at index >= the old count.
  void grow_slots(std::uint32_t count);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  // --- indexed 4-ary min-heap over (at, seq) ---

  /// One heap entry: the slot id plus a copy of its sort key, so ordering
  /// decisions stay inside the contiguous heap array. The slot's own
  /// (at, seq) is the authority; the copy is refreshed on insert and rearm.
  struct HeapEntry {
    Time at{};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  [[nodiscard]] static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  void heap_insert(std::uint32_t slot);
  void heap_remove(std::uint32_t pos);
  void heap_sift_up(std::uint32_t pos);
  void heap_sift_down(std::uint32_t pos);
  void heap_update(std::uint32_t pos);

  bool pop_one(Time deadline);
  /// With a choice hook attached: re-file every stale same-instant entry,
  /// collect the live tie set in seq order, and let the hook pick. Returns
  /// the heap position of the entry to fire (0 when there is no tie).
  [[nodiscard]] std::uint32_t choose_tied_entry();
  void fire_entry(std::uint32_t pos);
  void publish_metrics() const;

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t heap_peak_ = 0;
  const obs::SchedulerMetrics* metrics_ = nullptr;
  ChoiceHook* choice_hook_ = nullptr;
  /// Slot storage: fixed-size chunks, never reallocated (see kChunkSlots).
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  /// Per-slot index into heap_ (kNpos when absent); its size is the slot
  /// count. Kept flat so heap sifts write positions without chunk lookups.
  std::vector<std::uint32_t> heap_pos_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> free_slots_;
  /// (seq, heap position) scratch for the tie choice point; member so the
  /// per-event path stays allocation-free once warm.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> tie_scratch_;
};

using TimerHandle = Scheduler::TimerHandle;

}  // namespace elephant::sim

#include "sim/scheduler.hpp"

#include <cassert>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"

namespace elephant::sim {

// --- slot management -------------------------------------------------------

void Scheduler::grow_slots(std::uint32_t count) {
  while ((static_cast<std::size_t>(count) + kChunkSlots - 1) / kChunkSlots >
         slot_chunks_.size()) {
    slot_chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  heap_pos_.resize(count, kNpos);
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = slot_count();
  grow_slots(slot + 1);
  slot_at(slot).gen = 1;  // generation 0 never validates (defeats forged ids)
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.state = SlotState::kFree;
  heap_pos_[slot] = kNpos;
  ++s.gen;  // invalidate outstanding EventIds referencing this use
  s.cb = Callback{};
  free_slots_.push_back(slot);
}

// --- indexed 4-ary min-heap ------------------------------------------------
//
// Entries carry the slot id and a copy of the slot's (at, seq) key; the
// flat heap_pos_ array maps each slot back to its entry, so removal and
// re-keying are direct and a sift never dereferences a chunked Slot. The
// wider fan-out halves the tree depth of a binary heap, and the embedded key
// keeps every comparison inside the contiguous entry array — a sift at
// 100k-flow heap depth would otherwise take a cache miss per comparison
// chasing slot ids into the scattered Slot array.

void Scheduler::heap_sift_up(std::uint32_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!heap_less(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot] = pos;
    pos = parent;
  }
  heap_[pos] = moving;
  heap_pos_[moving.slot] = pos;
}

void Scheduler::heap_sift_down(std::uint32_t pos) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  const HeapEntry moving = heap_[pos];
  while (true) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        first_child + 3 < size ? first_child + 3 : size - 1;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (heap_less(heap_[c], heap_[best])) best = c;
    }
    if (!heap_less(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot] = pos;
    pos = best;
  }
  heap_[pos] = moving;
  heap_pos_[moving.slot] = pos;
}

void Scheduler::heap_update(std::uint32_t pos) {
  if (pos > 0 && heap_less(heap_[pos], heap_[(pos - 1) / 4])) {
    heap_sift_up(pos);
  } else {
    heap_sift_down(pos);
  }
}

void Scheduler::heap_insert(std::uint32_t slot) {
  const Slot& s = slot_at(slot);
  heap_.push_back(HeapEntry{s.at, s.seq, slot});
  if (heap_.size() > heap_peak_) heap_peak_ = heap_.size();
  heap_pos_[slot] = static_cast<std::uint32_t>(heap_.size() - 1);
  heap_sift_up(heap_pos_[slot]);
}

void Scheduler::heap_remove(std::uint32_t pos) {
  heap_pos_[heap_[pos].slot] = kNpos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    heap_pos_[last.slot] = pos;
    heap_update(pos);
  }
}

// --- one-shot events -------------------------------------------------------

EventId Scheduler::schedule_at(Time at, Callback cb) {
  assert(at >= now_ && "cannot schedule events in the past");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.at = at;
  s.seq = next_seq_++;
  s.state = SlotState::kOneShot;
  s.cb = std::move(cb);
  heap_insert(slot);
  return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | (slot + 1)};
}

bool Scheduler::pending(EventId id) const {
  if (!id.valid()) return false;
  const std::uint64_t index = (id.value & 0xffffffffull) - 1;
  if (index >= slot_count()) return false;
  const Slot& s = slot_at(static_cast<std::uint32_t>(index));
  return s.gen == (id.value >> 32) && s.state == SlotState::kOneShot;
}

void Scheduler::cancel(EventId id) {
  if (!pending(id)) return;
  const auto slot = static_cast<std::uint32_t>((id.value & 0xffffffffull) - 1);
  heap_remove(heap_pos_[slot]);
  release_slot(slot);
}

// --- timers ----------------------------------------------------------------

std::uint32_t Scheduler::timer_create(Callback cb) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.state = SlotState::kTimerIdle;
  s.cb = std::move(cb);
  return slot;
}

void Scheduler::timer_destroy(std::uint32_t slot) {
  timer_disarm(slot);
  release_slot(slot);
}

void Scheduler::timer_rearm(std::uint32_t slot, Time at) {
  assert(at >= now_ && "cannot schedule events in the past");
  Slot& s = slot_at(slot);
  assert(s.state == SlotState::kTimerArmed || s.state == SlotState::kTimerIdle ||
         s.state == SlotState::kTimerFiring);
  s.at = at;
  s.seq = next_seq_++;  // fresh FIFO rank, exactly as cancel + re-schedule had
  if (s.state == SlotState::kTimerFiring) {
    // Re-armed from its own callback: the heap entry is parked in place;
    // pop_one() re-keys it from the slot once the callback returns.
    s.state = SlotState::kTimerArmed;
    return;
  }
  if (s.state == SlotState::kTimerArmed) {
    HeapEntry& e = heap_[heap_pos_[slot]];
    if (at >= e.at) {
      // Lazy re-key: pushing a deadline out (the RTO/delayed-ACK pattern —
      // every ACK moves the timer later) leaves the stale entry in place
      // instead of sifting it down the whole heap. pop_one() re-files the
      // entry at the authoritative (at, seq) without firing, so fire order
      // is exactly what an eager sift would have produced. The slot's key
      // is already fresh, so this rearm is two stores instead of an
      // O(log n) sift per ACK.
      return;
    }
    e.at = s.at;
    e.seq = s.seq;
    heap_sift_up(heap_pos_[slot]);  // strictly earlier than the entry: up only
  } else {
    s.state = SlotState::kTimerArmed;
    heap_insert(slot);
  }
}

void Scheduler::timer_disarm(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  if (s.state == SlotState::kTimerArmed) {
    heap_remove(heap_pos_[slot]);
    s.state = SlotState::kTimerIdle;
  } else if (s.state == SlotState::kTimerFiring) {
    // Disarmed (or destroyed) from its own callback: drop the parked entry
    // now so pop_one() finds nothing left to re-key.
    heap_remove(heap_pos_[slot]);
    s.state = SlotState::kTimerIdle;
  }
}

// --- run loop --------------------------------------------------------------

bool Scheduler::pop_one(Time deadline) {
  while (true) {
    if (heap_.empty()) return false;
    if (heap_[0].at > deadline) return false;
    const Slot& s = slot_at(heap_[0].slot);
    if (s.state == SlotState::kTimerArmed && s.seq != heap_[0].seq) {
      // Stale entry from a lazy rearm (the seq is redrawn on every rearm, so
      // a mismatch — including a same-instant rearm that only moved the FIFO
      // rank — means the slot's key is the authority): re-file it and look
      // again. now_ and executed_ are untouched, so the refile is invisible
      // to the simulation.
      heap_[0].at = s.at;
      heap_[0].seq = s.seq;
      heap_sift_down(0);
      continue;
    }
    break;
  }

  fire_root();
  return true;
}

void Scheduler::fire_root() {
  const std::uint32_t slot = heap_[0].slot;

#ifndef NDEBUG
  // Same-instant ordering contract (see the class comment): the fired entry
  // must be the lowest-seq live entry among its instant's ties. Stale
  // lazy-rearm entries (slot seq differs) are excluded — their slot's
  // authoritative key is later. Debug builds only: O(heap) per event.
  for (const HeapEntry& e : heap_) {
    const Slot& es = slot_at(e.slot);
    const bool fresh = !(es.state == SlotState::kTimerArmed && es.seq != e.seq);
    assert(!(fresh && e.at == heap_[0].at && e.seq < heap_[0].seq) &&
           "same-instant FIFO tie-break violated");
  }
#endif

  now_ = heap_[0].at;
  ++executed_;

  // Slots never move (chunked storage), so this reference survives any
  // scheduling the callback does.
  Slot& s = slot_at(slot);
  if (s.state == SlotState::kOneShot) {
    // Move the callback out and free the slot first, so the callback may
    // freely schedule new events (which can recycle this very slot) while
    // it runs.
    heap_remove(0);
    Callback cb = std::move(s.cb);
    release_slot(slot);
    cb();
  } else {
    // Timer fire: the slot survives for rearm(). The heap entry is parked in
    // place — nearly every timer in the engine (delay line, serialization
    // wake, pacing, RTO) re-arms from its own callback, and the
    // parked entry turns that into one in-place re-key instead of a
    // whole-depth remove plus a whole-depth insert. The callback is moved to
    // the stack for the call, because the callback may destroy its own
    // timer (release_slot() resets the slot's callback, which would destroy
    // the running closure), and moved back afterwards unless that happened.
    s.state = SlotState::kTimerFiring;
    const std::uint32_t gen = s.gen;
    Callback cb = std::move(s.cb);
    cb();
    if (s.gen == gen) {
      s.cb = std::move(cb);
      if (s.state == SlotState::kTimerFiring) {
        // Not re-armed: the parked entry (possibly displaced by inserts
        // during the callback — heap_pos_ tracks it) comes out now.
        s.state = SlotState::kTimerIdle;
        heap_remove(heap_pos_[slot]);
      } else if (s.state == SlotState::kTimerArmed) {
        // Re-armed during the callback: refresh the parked entry's key from
        // the slot and restore heap order with a single sift.
        const std::uint32_t pos = heap_pos_[slot];
        heap_[pos].at = s.at;
        heap_[pos].seq = s.seq;
        heap_update(pos);
      }
      // kTimerIdle: disarmed mid-callback; the entry is already gone.
    }
  }
}

void Scheduler::publish_metrics() const {
  // metrics_ is checked non-null by the callers; three relaxed stores.
  metrics_->events_executed->set(static_cast<double>(executed_));
  metrics_->heap_depth->set(static_cast<double>(heap_.size()));
  metrics_->heap_peak->set(static_cast<double>(heap_peak_));
}

void Scheduler::run() {
  while (pop_one(Time::max())) {
  }
  if (metrics_ != nullptr) publish_metrics();
}

void Scheduler::run_until(Time deadline) {
  while (pop_one(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
  if (metrics_ != nullptr) publish_metrics();
}

Scheduler::StopReason Scheduler::run_until(Time deadline, const RunLimits& limits) {
  // Poll the wall clock only once per kWallCheckStride events: a
  // steady_clock read per event would dominate the scheduler's cost.
  constexpr std::uint64_t kWallCheckStride = 4096;
  // The per-call wall histogram is an explicit opt-in (see SchedulerMetrics):
  // the clock is only read when it is wired, so callers that invoke run_until
  // at per-event granularity pay one untaken branch, not two clock reads.
  const bool profile_wall = metrics_ != nullptr && metrics_->run_wall_s != nullptr;
  const auto call_start = profile_wall ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
  const bool wall_bounded = limits.max_wall_seconds > 0;
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(wall_bounded ? limits.max_wall_seconds : 0));
  const std::uint64_t event_stop =
      limits.max_events > 0 ? executed_ + limits.max_events : 0;

  std::uint64_t since_wall_check = 0;
  StopReason reason = StopReason::kDeadline;
  while (true) {
    if (event_stop != 0 && executed_ >= event_stop) {
      reason = StopReason::kEventBudget;
      break;
    }
    if (wall_bounded && ++since_wall_check >= kWallCheckStride) {
      since_wall_check = 0;
      if (std::chrono::steady_clock::now() >= wall_deadline) {
        reason = StopReason::kWallBudget;
        break;
      }
    }
    if (!pop_one(deadline)) {
      reason = heap_.empty() ? StopReason::kQueueExhausted : StopReason::kDeadline;
      if (now_ < deadline) now_ = deadline;
      break;
    }
  }
  if (metrics_ != nullptr) {
    publish_metrics();
    if (profile_wall) {
      metrics_->run_wall_s->record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - call_start)
              .count());
    }
  }
  return reason;
}

void Scheduler::clear() {
  for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
    Slot& s = slot_at(slot);
    switch (s.state) {
      case SlotState::kOneShot:
        release_slot(slot);
        break;
      case SlotState::kTimerArmed:
      case SlotState::kTimerFiring:
        s.state = SlotState::kTimerIdle;
        heap_pos_[slot] = kNpos;
        break;
      case SlotState::kTimerIdle:
      case SlotState::kFree:
        break;
    }
  }
  heap_.clear();
}

}  // namespace elephant::sim

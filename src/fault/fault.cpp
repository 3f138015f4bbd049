#include "fault/fault.hpp"

#include <bit>
#include <cstdio>

#include "net/port.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"
#include "trace/trace.hpp"

namespace elephant::fault {

std::string FaultPlan::signature() const {
  if (events.empty()) return "";
  // FNV-1a over the event fields; stable across platforms so run ids are.
  // The trailing 0 fills the slot of a since-deleted per-event delay, so
  // signatures (and the run ids built on them) did not move.
  std::uint64_t h = sim::kFnvOffset;
  for (const FaultEvent& e : events) {
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.at.ns()));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.kind));
    h = sim::fnv1a_fold(h, std::bit_cast<std::uint64_t>(e.value));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.duration.ns()));
    h = sim::fnv1a_fold(h, 0);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

FaultPlan FaultPlan::link_flap(sim::Time at, sim::Time down_for, int flaps) {
  const sim::Time period = 2 * down_for;
  FaultPlan plan;
  for (int i = 0; i < flaps; ++i) {
    FaultEvent e;
    e.at = at + i * period;
    e.kind = FaultKind::kLinkDown;
    e.duration = down_for;
    plan.events.push_back(e);
  }
  return plan;
}

FaultPlan FaultPlan::loss_burst(sim::Time at, double loss_prob, sim::Time for_time) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLossBurst;
  e.value = loss_prob;
  e.duration = for_time;
  return FaultPlan{}.add(e);
}

GilbertElliottParams GilbertElliottParams::from_loss(double stationary,
                                                     double mean_burst_packets) {
  GilbertElliottParams p;
  if (stationary <= 0) return p;
  if (stationary > 0.99) stationary = 0.99;
  if (mean_burst_packets < 1) mean_burst_packets = 1;
  // loss_bad = 1, loss_good = 0 ⇒ π_bad = stationary and mean bad-state
  // sojourn = 1 / p_bad_to_good = mean burst length.
  p.loss_good = 0;
  p.loss_bad = 1.0;
  p.p_bad_to_good = 1.0 / mean_burst_packets;
  p.p_good_to_bad = p.p_bad_to_good * stationary / (1.0 - stationary);
  return p;
}

bool ArrivalLoss::drop(std::uint32_t bytes) {
  bool lost = false;
  if (ge_.enabled()) {
    // Advance the chain, then apply the (new) state's loss probability.
    if (chance(ge_rng_, bad_ ? ge_.p_bad_to_good : ge_.p_good_to_bad)) bad_ = !bad_;
    const double loss = bad_ ? ge_.loss_bad : ge_.loss_good;
    lost = loss > 0 && chance(ge_rng_, loss);
  }
  if (!lost) lost = rate_ > 0 && chance(rng_, rate_);
  if (lost) {
    ++drops_;
    bytes_dropped_ += bytes;
  }
  return lost;
}

FaultInjector::FaultInjector(sim::Scheduler& sched, net::Port& target, std::uint64_t seed,
                             trace::Tracer* tracer)
    : sched_(sched), target_(target), tracer_(tracer), rng_(seed) {}

void FaultInjector::install(const FaultPlan& plan) {
  target_.set_fault_rng(&rng_);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent e = plan.events[i];
    sched_.schedule_at(e.at, [this, e, i] { apply(e, i); });
    if (e.duration > sim::Time::zero()) {
      sched_.schedule_at(e.at + e.duration, [this, e, i] { revert(e, i); });
    }
  }
}

void FaultInjector::record(const FaultEvent& e, std::size_t index, bool applying) {
  if (tracer_ == nullptr) return;
  trace::TraceRecord r;
  r.t = sched_.now();
  r.type = trace::RecordType::kFault;
  r.seq = index;
  r.v0 = static_cast<double>(e.kind);
  r.v1 = e.value;
  r.v2 = applying ? 1 : 0;
  tracer_->record(r);
}

void FaultInjector::apply(const FaultEvent& e, std::size_t index) {
  switch (e.kind) {
    case FaultKind::kLinkDown:
      if (++link_down_depth_ == 1) target_.set_link_up(false);
      break;
    case FaultKind::kLossBurst:
      target_.set_link_loss(e.value);
      break;
  }
  ++applied_;
  record(e, index, /*applying=*/true);
}

void FaultInjector::revert(const FaultEvent& e, std::size_t index) {
  switch (e.kind) {
    case FaultKind::kLinkDown:
      if (--link_down_depth_ == 0) target_.set_link_up(true);
      break;
    case FaultKind::kLossBurst:
      target_.set_link_loss(0);
      break;
  }
  record(e, index, /*applying=*/false);
}

}  // namespace elephant::fault

#include "fault/fault.hpp"

#include <bit>
#include <cassert>
#include <cstdio>

#include "net/port.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"
#include "trace/trace.hpp"

namespace elephant::fault {

namespace {

constexpr const char* kKindNames[kFaultKindCount] = {
    "link_down", "rate_scale", "loss_burst", "reorder", "duplicate", "jitter",
};

}  // namespace

const char* to_string(FaultKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  assert(i < kFaultKindCount);
  return kKindNames[i];
}

std::string FaultPlan::signature() const {
  if (events.empty()) return "";
  // FNV-1a over the event fields; stable across platforms so run ids are.
  std::uint64_t h = sim::kFnvOffset;
  for (const FaultEvent& e : events) {
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.at.ns()));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.kind));
    h = sim::fnv1a_fold(h, std::bit_cast<std::uint64_t>(e.value));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.duration.ns()));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(e.delay.ns()));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

FaultPlan FaultPlan::link_flap(sim::Time at, sim::Time down_for, int flaps, sim::Time period) {
  if (period <= sim::Time::zero()) period = 2 * down_for;
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

FaultPlan FaultPlan::degrade(sim::Time at, double rate_factor, sim::Time for_time) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRateScale;
  e.value = rate_factor;
  e.duration = for_time;
  return FaultPlan{}.add(e);
}

FaultPlan FaultPlan::loss_burst(sim::Time at, double loss_prob, sim::Time for_time) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLossBurst;
  e.value = loss_prob;
  e.duration = for_time;
  return FaultPlan{}.add(e);
}

FaultPlan FaultPlan::jitter_spike(sim::Time at, sim::Time amplitude, sim::Time for_time) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kJitter;
  e.delay = amplitude;
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
    : sched_(sched), target_(target), tracer_(tracer), rng_(seed),
      nominal_rate_bps_(target.rate_bps()) {}

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
  r.v1 = e.value != 0 ? e.value : e.delay.ms();
  r.v2 = applying ? 1 : 0;
  tracer_->record(r);
}

void FaultInjector::apply(const FaultEvent& e, std::size_t index) {
  net::Port::LinkPerturb p = target_.perturb();
  switch (e.kind) {
    case FaultKind::kLinkDown:
      if (++link_down_depth_ == 1) target_.set_link_up(false);
      break;
    case FaultKind::kRateScale:
      // No stacking: overlapping rate faults overwrite, revert restores
      // the nominal rate.
      target_.set_rate_bps(nominal_rate_bps_ * e.value);
      break;
    case FaultKind::kLossBurst:
      p.loss_prob = e.value;
      break;
    case FaultKind::kReorder:
      p.reorder_prob = e.value;
      p.reorder_delay = e.delay;
      break;
    case FaultKind::kDuplicate:
      p.duplicate_prob = e.value;
      break;
    case FaultKind::kJitter:
      p.jitter = e.delay;
      break;
  }
  target_.set_perturb(p);
  ++applied_;
  record(e, index, /*applying=*/true);
}

void FaultInjector::revert(const FaultEvent& e, std::size_t index) {
  net::Port::LinkPerturb p = target_.perturb();
  switch (e.kind) {
    case FaultKind::kLinkDown:
      if (--link_down_depth_ == 0) target_.set_link_up(true);
      break;
    case FaultKind::kRateScale:
      target_.set_rate_bps(nominal_rate_bps_);
      break;
    case FaultKind::kLossBurst:
      p.loss_prob = 0;
      break;
    case FaultKind::kReorder:
      p.reorder_prob = 0;
      p.reorder_delay = sim::Time::zero();
      break;
    case FaultKind::kDuplicate:
      p.duplicate_prob = 0;
      break;
    case FaultKind::kJitter:
      p.jitter = sim::Time::zero();
      break;
  }
  target_.set_perturb(p);
  ++reverted_;
  record(e, index, /*applying=*/false);
}

}  // namespace elephant::fault

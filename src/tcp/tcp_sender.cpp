#include "tcp/tcp_sender.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.hpp"

namespace elephant::tcp {

namespace {
constexpr std::uint32_t kMaxRtoBackoff = 64;
}

TcpSender::TcpSender(sim::Scheduler& sched, net::Host& local, TcpSenderConfig cfg,
                     cca::CongestionControl* cc)
    : sched_(sched), local_(local), cfg_(cfg), cc_(cc), rtt_(cfg.min_rto) {
  assert(cfg_.agg >= 1);
  assert(cc_ != nullptr);
  rto_timer_.init(sched_, [this] { rto_timer_fired(); });
  pace_timer_.init(sched_, [this] {
    pace_armed_ = false;
    try_send();
  });
}

TcpSender::TcpSender(sim::Scheduler& sched, net::Host& local, TcpSenderConfig cfg,
                     std::unique_ptr<cca::CongestionControl> cc)
    : TcpSender(sched, local, cfg, cc.get()) {
  owned_cc_ = std::move(cc);
}

void TcpSender::start() {
  if (started_) return;
  started_ = true;
  const sim::Time at = std::max(cfg_.start_time, sched_.now());
  sched_.schedule_at(at, [this] { try_send(); });
}

double TcpSender::cwnd_segments() const { return cc_->cwnd_segments(); }

bool TcpSender::can_send_now() const {
  if (sb_.pipe_units() == 0) return true;  // always allow one unit of progress
  const double pipe_seg = static_cast<double>(sb_.pipe_units()) * cfg_.agg;
  return pipe_seg + cfg_.agg <= cwnd_segments();
}

std::optional<std::uint64_t> TcpSender::pick_unit_to_send() {
  if (const auto abs = sb_.pick_retx()) return abs;
  const bool more_data =
      !stopped_ && (cfg_.transfer_units == 0 || sb_.next_seq() < cfg_.transfer_units);
  if (more_data) return sb_.next_seq();
  return std::nullopt;
}

void TcpSender::try_send() {
  const double pacing_bps =
      cfg_.pace_always && cc_->pacing_rate_bps() == 0.0 && rtt_.has_sample()
          ? 2.0 * cwnd_segments() * cfg_.mss * 8.0 / rtt_.srtt().sec()
          : cc_->pacing_rate_bps();
  const bool paced = pacing_bps > 0.0;
  const double unit_bits = static_cast<double>(cfg_.mss) * 8.0 * cfg_.agg;

  while (can_send_now()) {
    if (paced && sched_.now() < next_pace_time_) {
      arm_pacing(next_pace_time_);
      return;
    }
    const auto abs = pick_unit_to_send();
    if (!abs) return;
    send_unit(*abs);
    if (paced) {
      const sim::Time gap = sim::Time::seconds(unit_bits / pacing_bps);
      const sim::Time base = std::max(next_pace_time_, sched_.now());
      next_pace_time_ = base + gap;
    }
  }
}

void TcpSender::send_unit(std::uint64_t abs) {
  const sim::Time now = sched_.now();
  const bool is_retx = abs < sb_.next_seq();

  const sim::Time delivered_time_eff =
      delivered_time_ == sim::Time::zero() ? now : delivered_time_;
  const std::uint8_t retx_count =
      sb_.record_send(abs, now, delivered_segments_, delivered_time_eff);
  if (is_retx) ++stats_.retx_units;
  ++stats_.units_sent;

  net::Packet p;
  p.flow = cfg_.flow;
  p.src = cfg_.src;
  p.dst = cfg_.dst;
  p.seq = abs;
  p.segments = cfg_.agg;
  p.size = cfg_.mss * cfg_.agg;
  p.retx = is_retx;
  p.ecn_capable = cfg_.ecn;
  p.sent_time = now;
  if (tracer_) {
    trace::TraceRecord r;
    r.t = now;
    r.type = is_retx ? trace::RecordType::kPacketRetx : trace::RecordType::kPacketSent;
    r.flow = cfg_.flow;
    r.seq = abs;
    r.v0 = static_cast<double>(p.size);
    r.v1 = static_cast<double>(sb_.pipe_units());
    r.v2 = static_cast<double>(retx_count);
    tracer_->record(r);
  }
  local_.transmit(std::move(p));

  if (is_retx || !rto_armed_ || rto_deadline_ == sim::Time::max()) {
    // (Re)start the timer on fresh sends from idle and on every
    // retransmission, as Linux does.
    rto_deadline_ = now + rtt_.rto() * static_cast<std::int64_t>(rto_backoff_);
    arm_rto();
  }
}

void TcpSender::arm_rto() {
  if (rto_armed_) return;
  rto_armed_ = true;
  rto_timer_.rearm(rto_deadline_);
}

void TcpSender::rto_timer_fired() {
  rto_armed_ = false;
  if (sb_.pipe_units() == 0 && sb_.lost_pending() == 0) {
    rto_deadline_ = sim::Time::max();
    return;
  }
  if (sched_.now() < rto_deadline_) {
    arm_rto();  // deadline was pushed forward by ACK progress
    return;
  }
  do_rto();
}

void TcpSender::trace_cwnd() {
  const double cwnd = cc_->cwnd_segments();
  const double pacing = cc_->pacing_rate_bps();
  if (cwnd == last_traced_cwnd_ && pacing == last_traced_pacing_) return;
  last_traced_cwnd_ = cwnd;
  last_traced_pacing_ = pacing;
  trace::TraceRecord r;
  r.t = sched_.now();
  r.type = trace::RecordType::kCwndUpdate;
  r.flow = cfg_.flow;
  r.v0 = cwnd;
  r.v1 = pacing;
  r.v2 = rtt_.srtt().ms();
  tracer_->record(r);
}

void TcpSender::do_rto() {
  const sim::Time now = sched_.now();
  ++stats_.rtos;
  rto_backoff_ = std::min(rto_backoff_ * 2, kMaxRtoBackoff);

  // Everything in flight is presumed lost; SACKed units are retained
  // (we do not model reneging).
  const std::uint64_t lost_pending = sb_.rto_mark_all();
  recovery_point_ = sb_.next_seq();
  ++stats_.congestion_events;
  cc_->on_rto(now);
  if (tracer_) {
    trace::TraceRecord r;
    r.t = now;
    r.type = trace::RecordType::kRtoFire;
    r.flow = cfg_.flow;
    r.seq = sb_.una();
    r.v0 = static_cast<double>(rto_backoff_);
    r.v1 = rtt_.rto().ms();
    r.v2 = static_cast<double>(lost_pending);
    tracer_->record(r);
    trace_cwnd();
  }

  rto_deadline_ = now + rtt_.rto() * static_cast<std::int64_t>(rto_backoff_);
  arm_rto();
  next_pace_time_ = sim::Time::zero();  // RTO recovery is not pacing-limited
  try_send();
}

void TcpSender::arm_pacing(sim::Time at) {
  if (pace_armed_) return;
  pace_armed_ = true;
  pace_timer_.rearm(std::max(at, sched_.now()));
}

void TcpSender::process_sacks(const net::Packet& ack, std::uint64_t* newly_delivered_units,
                              DeliverySample* newest) {
  for (std::uint8_t i = 0; i < ack.n_sacks; ++i) {
    const net::SackBlock& b = ack.sacks[i];
    sb_.sack_range(b.start, b.end, newly_delivered_units, newest,
                   [this](std::uint64_t abs, std::uint8_t retx_count) {
                     if (tracer_) {
                       trace::TraceRecord r;
                       r.t = sched_.now();
                       r.type = trace::RecordType::kSackMark;
                       r.flow = cfg_.flow;
                       r.seq = abs;
                       r.v0 = static_cast<double>(cfg_.agg);
                       r.v1 = static_cast<double>(sb_.pipe_units());
                       r.v2 = static_cast<double>(retx_count);
                       tracer_->record(r);
                     }
                   });
  }
}

void TcpSender::mark_losses() {
  const std::uint64_t newly_lost =
      sb_.mark_losses(cfg_.reorder_units, [this](std::uint64_t abs, std::uint8_t retx_count) {
        if (tracer_) {
          trace::TraceRecord r;
          r.t = sched_.now();
          r.type = trace::RecordType::kLossMark;
          r.flow = cfg_.flow;
          r.seq = abs;
          r.v0 = static_cast<double>(cfg_.agg);
          r.v1 = static_cast<double>(sb_.pipe_units());
          r.v2 = static_cast<double>(retx_count);
          tracer_->record(r);
        }
      });
  if (newly_lost > 0) {
    stats_.lost_units_marked += newly_lost;
    enter_or_update_recovery(static_cast<double>(newly_lost) * cfg_.agg);
  }
}

void TcpSender::enter_or_update_recovery(double lost_segments) {
  cca::LossSample loss;
  loss.now = sched_.now();
  loss.lost_segments = lost_segments;
  loss.inflight_segments = pipe_segments();
  loss.delivered_segments = delivered_segments_;
  loss.new_congestion_event = sb_.una() >= recovery_point_;
  if (loss.new_congestion_event) {
    recovery_point_ = sb_.next_seq();
    ++stats_.congestion_events;
  }
  cc_->on_loss(loss);
}

void TcpSender::on_packet(net::Packet&& p) {
  if (!p.is_ack) return;
  ++stats_.acks_received;
  const sim::Time now = sched_.now();

  std::uint64_t newly_delivered_units = 0;
  DeliverySample newest;  // most recently sent unit delivered by this ACK

  // 1. Cumulative ACK advance (capture rate-sample fields before wiping).
  const std::uint64_t ack_to = std::min(p.ack, sb_.next_seq());
  const bool progressed = sb_.advance_una(ack_to, &newly_delivered_units, &newest);

  // 2. SACK processing (shares the same "newest delivered" tracking).
  process_sacks(p, &newly_delivered_units, &newest);

  // 3. RTT sample (Karn's rule: only never-retransmitted units).
  cca::AckSample ack;
  if (newest.valid()) {
    const sim::Time rtt_sample = now - newest.sent_time;
    rtt_.add_sample(rtt_sample);
    ack.rtt = rtt_sample;
    if (metrics_ != nullptr && metrics_->srtt_s != nullptr) [[unlikely]] {
      metrics_->srtt_s->record(rtt_.srtt().sec());
    }
  }

  // 4. Delivery bookkeeping, rate sample, and packet-timed round tracking.
  double delivery_rate = 0;
  bool round_start = false;
  if (newly_delivered_units > 0) {
    delivered_segments_ += static_cast<double>(newly_delivered_units) * cfg_.agg;
    delivered_time_ = now;
    if (newest.valid() && now > newest.delivered_time_at_send) {
      delivery_rate = (delivered_segments_ - newest.delivered_at_send) /
                      (now - newest.delivered_time_at_send).sec();
    }
    if (newest.valid() && newest.delivered_at_send >= next_round_delivered_) {
      round_start = true;
      next_round_delivered_ = delivered_segments_;
    }
  }

  // 5. Loss marking from the updated SACK picture.
  mark_losses();

  // 6. Upcall to the congestion controller.
  if (newly_delivered_units > 0 || p.ece) {
    ack.now = now;
    ack.min_rtt = rtt_.min_rtt();
    ack.acked_segments = static_cast<double>(newly_delivered_units) * cfg_.agg;
    ack.inflight_segments = pipe_segments();
    ack.delivered_segments = delivered_segments_;
    ack.delivery_rate = delivery_rate;
    ack.round_start = round_start;
    ack.ece = p.ece;
    cc_->on_ack(ack);
  }
  if (tracer_) trace_cwnd();
  if (metrics_ != nullptr && metrics_->cwnd_segments != nullptr) [[unlikely]] {
    metrics_->cwnd_segments->set(cc_->cwnd_segments());
  }

  // Finite transfer bookkeeping: on the completing ACK, record the instant,
  // release both timers, and notify the owner — a completed connection must
  // not hold scheduler events open nor send another segment.
  if (completion_time_ == sim::Time::zero() && completed()) {
    completion_time_ = now;
    teardown_after_completion();
    if (on_complete_) on_complete_(on_complete_ctx_);
    return;
  }

  // 7. RTO refresh. Any delivery progress (cumulative OR SACK) restarts the
  // timer: during SACK recovery in a deep buffer, una can legitimately stall
  // for a full queue-drain RTT while SACKs stream in, and refreshing only on
  // cumulative advance would fire spurious RTOs (tcp_rearm_rto behaviour).
  if (progressed) rto_backoff_ = 1;
  if (progressed || newly_delivered_units > 0) {
    rto_deadline_ = (sb_.pipe_units() > 0 || sb_.lost_pending() > 0)
                        ? now + rtt_.rto() * static_cast<std::int64_t>(rto_backoff_)
                        : sim::Time::max();
  }

  try_send();
}

void TcpSender::teardown_after_completion() {
  stopped_ = true;
  rto_armed_ = false;
  rto_deadline_ = sim::Time::max();
  rto_timer_.disarm();
  pace_armed_ = false;
  pace_timer_.disarm();
  // The live window is empty (una == next_seq == transfer_units): drop the
  // grow-only scoreboard storage so completed mice in long mixed sweeps do
  // not pin their peak window allocation (bounded-RSS satellite).
  sb_.release();
}

}  // namespace elephant::tcp

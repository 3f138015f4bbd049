#pragma once

#include <memory>
#include <string>

#include "aqm/codel.hpp"
#include "aqm/fifo.hpp"
#include "aqm/fq_codel.hpp"
#include "aqm/queue_disc.hpp"
#include "aqm/pie.hpp"
#include "aqm/red.hpp"

namespace elephant::aqm {

/// The queue disciplines the paper evaluates (FIFO, RED, FQ-CoDel), plus
/// plain CoDel, Adaptive RED (the self-tuning fix the paper's conclusion
/// calls for), and PIE (RFC 8033) for the extension sweeps.
enum class AqmKind { kFifo, kRed, kFqCodel, kCodel, kRedAdaptive, kPie };

[[nodiscard]] std::string to_string(AqmKind kind);
[[nodiscard]] AqmKind aqm_kind_from_string(const std::string& name);

/// Build a queue disc of `kind` with `limit_bytes` of buffer. Every other
/// knob is its config struct's default, which matches the paper's `tc`
/// setup; `ecn` makes the AQMs mark ECN-capable packets instead of dropping.
[[nodiscard]] std::unique_ptr<QueueDisc> make_queue_disc(AqmKind kind, sim::Scheduler& sched,
                                                         std::size_t limit_bytes,
                                                         std::uint64_t seed, bool ecn = false);

}  // namespace elephant::aqm

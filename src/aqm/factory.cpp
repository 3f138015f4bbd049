#include "aqm/factory.hpp"

#include <stdexcept>

namespace elephant::aqm {

std::string to_string(AqmKind kind) {
  switch (kind) {
    case AqmKind::kFifo:
      return "fifo";
    case AqmKind::kRed:
      return "red";
    case AqmKind::kFqCodel:
      return "fq_codel";
    case AqmKind::kCodel:
      return "codel";
    case AqmKind::kRedAdaptive:
      return "red_adaptive";
    case AqmKind::kPie:
      return "pie";
  }
  return "unknown";
}

AqmKind aqm_kind_from_string(const std::string& name) {
  if (name == "fifo") return AqmKind::kFifo;
  if (name == "red") return AqmKind::kRed;
  if (name == "fq_codel" || name == "fqcodel") return AqmKind::kFqCodel;
  if (name == "codel") return AqmKind::kCodel;
  if (name == "red_adaptive" || name == "ared") return AqmKind::kRedAdaptive;
  if (name == "pie") return AqmKind::kPie;
  throw std::invalid_argument("unknown AQM name: " + name);
}

std::unique_ptr<QueueDisc> make_queue_disc(AqmKind kind, sim::Scheduler& sched,
                                           std::size_t limit_bytes, std::uint64_t seed,
                                           bool ecn) {
  switch (kind) {
    case AqmKind::kFifo:
      return std::make_unique<FifoQueue>(sched, limit_bytes);
    case AqmKind::kRed:
    case AqmKind::kRedAdaptive: {
      RedConfig cfg;
      cfg.limit_bytes = limit_bytes;
      cfg.ecn = ecn;
      cfg.adaptive = kind == AqmKind::kRedAdaptive;
      return std::make_unique<RedQueue>(sched, cfg, seed);
    }
    case AqmKind::kFqCodel: {
      FqCodelConfig cfg;
      cfg.memory_limit_bytes = limit_bytes;
      cfg.codel.ecn = ecn;
      return std::make_unique<FqCodelQueue>(sched, cfg);
    }
    case AqmKind::kCodel: {
      CodelParams params;
      params.ecn = ecn;
      return std::make_unique<CodelQueue>(sched, limit_bytes, params);
    }
    case AqmKind::kPie: {
      PieConfig cfg;
      cfg.limit_bytes = limit_bytes;
      cfg.ecn = ecn;
      return std::make_unique<PieQueue>(sched, cfg, seed);
    }
  }
  throw std::invalid_argument("unknown AQM kind");
}

}  // namespace elephant::aqm

#include "trace/trace.hpp"

#include <cassert>

namespace elephant::trace {

namespace {
constexpr const char* kTypeNames[kRecordTypeCount] = {
    "cwnd_update", "packet_sent", "packet_retx", "sack_mark",   "loss_mark",
    "rto_fire",    "aqm_enqueue", "aqm_drop",    "aqm_mark",    "queue_depth",
    "fault",       "flow_start",  "flow_end",
};
}  // namespace

const char* to_string(RecordType type) {
  const auto i = static_cast<std::size_t>(type);
  assert(i < kRecordTypeCount);
  return kTypeNames[i];
}

bool record_type_from_string(std::string_view name, RecordType* out) {
  for (std::size_t i = 0; i < kRecordTypeCount; ++i) {
    if (name == kTypeNames[i]) {
      *out = static_cast<RecordType>(i);
      return true;
    }
  }
  return false;
}

Tracer::Tracer(TraceSink& sink, std::size_t capacity)
    : sink_(sink), ring_(capacity == 0 ? 1 : capacity) {}

Tracer::~Tracer() { flush(); }

void Tracer::enable_only(std::initializer_list<RecordType> types) {
  mask_ = 0;
  for (const RecordType t : types) mask_ |= 1u << static_cast<unsigned>(t);
}

void Tracer::drain() {
  sink_.write({ring_.data(), head_});
  head_ = 0;
}

void Tracer::flush() {
  drain();
  sink_.flush();
}

}  // namespace elephant::trace

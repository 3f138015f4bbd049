#include "trace/sinks.hpp"

#include <bit>

#include "sim/snapshot.hpp"
#include "trace/codec.hpp"

namespace elephant::trace {

CsvSink::CsvSink(std::ostream& out) : out_(out) { out_ << csv_header() << '\n'; }

void CsvSink::write(std::span<const TraceRecord> batch) {
  std::string buf;
  buf.reserve(batch.size() * 64);
  for (const TraceRecord& r : batch) append_csv(r, &buf);
  out_ << buf;
}

void DigestSink::write(std::span<const TraceRecord> batch) {
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::uint64_t h = hash_;
  for (const TraceRecord& r : batch) {
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(r.t.ns()));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(r.type));
    h = sim::fnv1a_fold(h, r.flow);
    h = sim::fnv1a_fold(h, r.seq);
    h = sim::fnv1a_fold(h, bits(r.v0));
    h = sim::fnv1a_fold(h, bits(r.v1));
    h = sim::fnv1a_fold(h, bits(r.v2));
  }
  hash_ = h;
  count_ += batch.size();
}

}  // namespace elephant::trace

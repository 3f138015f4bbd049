#include "trace/codec.hpp"

#include <cstdio>
#include <optional>

#include "obs/json.hpp"

namespace elephant::trace {

using obs::json::Value;

namespace {

/// %.17g round-trips every double; %lld/% llu are exact for the id fields.
void append_row(const TraceRecord& r, const char* fmt, std::string* out) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof(buf), fmt, static_cast<long long>(r.t.ns()),
                              to_string(r.type), static_cast<unsigned>(r.flow),
                              static_cast<unsigned long long>(r.seq), r.v0, r.v1, r.v2);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

/// Build a record from its seven fields in CSV column order. Every numeric
/// field must scan in full, so a torn or garbled row is rejected.
bool assemble(const std::string_view (&f)[7], TraceRecord* out) {
  TraceRecord r;
  std::int64_t t_ns = 0;
  if (!record_type_from_string(f[1], &r.type) || !obs::json::scan_number(f[0], &t_ns) ||
      !obs::json::scan_number(f[2], &r.flow) || !obs::json::scan_number(f[3], &r.seq) ||
      !obs::json::scan_number(f[4], &r.v0) || !obs::json::scan_number(f[5], &r.v1) ||
      !obs::json::scan_number(f[6], &r.v2)) {
    return false;
  }
  r.t = sim::Time::nanoseconds(t_ns);
  *out = r;
  return true;
}

}  // namespace

std::string csv_header() { return "t_ns,type,flow,seq,v0,v1,v2"; }

void append_csv(const TraceRecord& r, std::string* out) {
  append_row(r, "%lld,%s,%u,%llu,%.17g,%.17g,%.17g\n", out);
}

void append_jsonl(const TraceRecord& r, std::string* out) {
  append_row(r,
             "{\"t_ns\":%lld,\"type\":\"%s\",\"flow\":%u,\"seq\":%llu,"
             "\"v0\":%.17g,\"v1\":%.17g,\"v2\":%.17g}\n",
             out);
}

bool parse_csv(std::string_view line, TraceRecord* out) {
  // A line terminator may ride along, as it may after a JSONL object.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.remove_suffix(1);
  std::string_view fields[7];
  for (int i = 0; i < 6; ++i) {
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    fields[i] = line.substr(0, comma);
    line.remove_prefix(comma + 1);
  }
  fields[6] = line;  // a stray eighth field fails v2's scan
  return assemble(fields, out);
}

bool parse_jsonl(std::string_view line, TraceRecord* out) {
  static constexpr std::string_view kKeys[7] = {"t_ns", "type", "flow", "seq",
                                                "v0",   "v1",   "v2"};
  const std::optional<Value> doc = obs::json::parse(line);
  if (!doc) return false;
  std::string_view fields[7];
  for (int i = 0; i < 7; ++i) {
    const Value* v = doc->find(kKeys[i]);
    const auto kind = i == 1 ? Value::Kind::kString : Value::Kind::kNumber;
    if (v == nullptr || !v->is(kind)) return false;
    fields[i] = v->text;  // a number's spelling, or the decoded type name
  }
  return assemble(fields, out);
}

}  // namespace elephant::trace

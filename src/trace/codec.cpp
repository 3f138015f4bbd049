#include "trace/codec.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace elephant::trace {

std::string csv_header() { return "t_ns,type,flow,seq,v0,v1,v2"; }

void append_csv(const TraceRecord& r, std::string* out) {
  // %.17g round-trips every double; %lld/%llu are exact for the id fields.
  char buf[256];
  const int n = std::snprintf(buf, sizeof(buf), "%lld,%s,%u,%llu,%.17g,%.17g,%.17g\n",
                              static_cast<long long>(r.t.ns()), to_string(r.type),
                              static_cast<unsigned>(r.flow),
                              static_cast<unsigned long long>(r.seq), r.v0, r.v1, r.v2);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

bool parse_csv(std::string_view line, TraceRecord* out) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.remove_suffix(1);
  std::string_view f[7];
  for (int i = 0; i < 6; ++i) {
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    f[i] = line.substr(0, comma);
    line.remove_prefix(comma + 1);
  }
  f[6] = line;  // a stray eighth field fails v2's scan
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

}  // namespace elephant::trace

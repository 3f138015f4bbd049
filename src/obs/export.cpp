#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace elephant::obs {

namespace {

void append_double(double v, std::string* out) {
  if (!std::isfinite(v)) v = 0;  // JSON has no Inf/NaN literals
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

void append_u64(std::uint64_t v, std::string* out) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

}  // namespace

void append_json(const MetricsRegistry& reg, std::string* out, bool include_histograms) {
  std::lock_guard lock(reg.mutex());
  *out += "{\"counters\":{";
  bool first = true;
  reg.for_each_counter([&](const std::string& name, const Counter& c) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    append_json_escaped(name, out);
    *out += "\":";
    append_u64(c.value(), out);
  });
  *out += "},\"gauges\":{";
  first = true;
  reg.for_each_gauge([&](const std::string& name, const Gauge& g) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    append_json_escaped(name, out);
    *out += "\":";
    append_double(g.value(), out);
  });
  *out += '}';
  if (include_histograms) {
    *out += ",\"histograms\":{";
    first = true;
    reg.for_each_histogram([&](const std::string& name, const LogLinHistogram& h) {
      if (!first) *out += ',';
      first = false;
      *out += '"';
      append_json_escaped(name, out);
      *out += "\":{\"count\":";
      append_u64(h.count(), out);
      *out += ",\"sum\":";
      append_double(h.sum(), out);
      *out += ",\"min\":";
      append_double(h.min(), out);
      *out += ",\"max\":";
      append_double(h.max(), out);
      *out += ",\"mean\":";
      append_double(h.mean(), out);
      *out += ",\"p50\":";
      append_double(h.quantile(0.5), out);
      *out += ",\"p95\":";
      append_double(h.quantile(0.95), out);
      *out += ",\"p99\":";
      append_double(h.quantile(0.99), out);
      // Sparse bucket dump makes the journal line a lossless transport: the
      // C++ journal reader reconstructs a mergeable histogram from it.
      *out += ",\"buckets\":[";
      bool first_bucket = true;
      h.for_each_bucket([&](std::size_t index, std::uint64_t n) {
        if (!first_bucket) *out += ',';
        first_bucket = false;
        *out += "[";
        append_u64(index, out);
        *out += ',';
        append_u64(n, out);
        *out += ']';
      });
      *out += "]}";
    });
    *out += '}';
  }
  *out += '}';
}

}  // namespace elephant::obs

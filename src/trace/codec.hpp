#pragma once

#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace elephant::trace {

/// The trace text encoding, shared by CsvSink (writer) and the trace2csv
/// tool / round-trip tests (reader).
///
/// The encoding is lossless: time is emitted as integer nanoseconds and the
/// value slots with max_digits10 precision, so parse_csv(append_csv(r)) == r.

/// CSV column header (no trailing newline): t_ns,type,flow,seq,v0,v1,v2
[[nodiscard]] std::string csv_header();

/// Append one record as a CSV row (with trailing '\n').
void append_csv(const TraceRecord& r, std::string* out);

/// Parse one CSV row. Returns false on the header row, blank lines, or
/// malformed input: every numeric field must be consumed in full.
[[nodiscard]] bool parse_csv(std::string_view line, TraceRecord* out);

}  // namespace elephant::trace

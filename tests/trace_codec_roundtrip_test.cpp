// Systematic CSV round-trip over every record kind, including the newest
// ones (kFault, kFlowStart, kFlowEnd), through the parser trace2csv uses.
// Guards the "lossless round trip" contract for the full record-type enum,
// not just the kinds a particular sink happens to emit.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/trace.hpp"

namespace elephant::trace {
namespace {

/// One representative record per type, exercising that type's documented
/// v0–v2 slots with awkward values (large seq, fractional ns-precision time,
/// negative and huge doubles).
std::vector<TraceRecord> one_of_each() {
  std::vector<TraceRecord> records;
  for (std::size_t i = 0; i < kRecordTypeCount; ++i) {
    TraceRecord r;
    r.t = sim::Time::nanoseconds(1'000'000'007 * static_cast<std::int64_t>(i + 1));
    r.type = static_cast<RecordType>(i);
    r.flow = static_cast<std::uint32_t>(17 * i);
    r.seq = i % 2 == 0 ? 18446744073709551615ull - i : i * 1000;
    r.v0 = static_cast<double>(i) + 0.125;
    r.v1 = i % 3 == 0 ? -2.5e-9 : 1.25e9;
    r.v2 = 0.480000000000000004;  // does not round-trip through %.6f
    records.push_back(r);
  }
  return records;
}

TEST(CodecRoundTrip, EveryRecordTypeThroughCsv) {
  for (const TraceRecord& r : one_of_each()) {
    std::string line;
    append_csv(r, &line);
    ASSERT_FALSE(line.empty());
    line.pop_back();  // strip trailing '\n' as getline would
    TraceRecord back;
    ASSERT_TRUE(parse_csv(line, &back)) << line;
    EXPECT_EQ(back, r) << to_string(r.type) << ": " << line;
  }
}

TEST(CodecRoundTrip, MixedFormatStreamParsesLikeTrace2Csv) {
  // Concatenated CSV traces, header rows mixed in with records, as trace2csv
  // sees when files are cat'd together: every record parses, headers don't.
  const auto records = one_of_each();
  std::string stream = csv_header() + '\n';
  for (std::size_t i = 0; i < records.size(); ++i) {
    append_csv(records[i], &stream);
    if (i == 5) stream += csv_header() + '\n';  // second file's header
  }

  std::vector<TraceRecord> parsed;
  std::size_t skipped = 0;
  std::size_t start = 0;
  while (start < stream.size()) {
    const std::size_t end = stream.find('\n', start);
    const std::string line = stream.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    TraceRecord r;
    if (parse_csv(line, &r)) {
      parsed.push_back(r);
    } else {
      ++skipped;
    }
  }
  EXPECT_EQ(skipped, 2u);  // the two headers
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i], records[i]) << "record " << i;
  }
}

TEST(CodecRoundTrip, FaultRecordSlotsSurviveBothCodecs) {
  // kFault encodes (FaultKind, magnitude, apply/revert) in the value slots —
  // the exact fields the fault-timeline reconstruction scripts rely on.
  TraceRecord r;
  r.t = sim::Time::seconds(2.5);
  r.type = RecordType::kFault;
  r.v0 = 2;       // FaultKind::kLossBurst as double
  r.v1 = 0.02;    // magnitude (loss probability)
  r.v2 = 1;       // apply
  std::string line;
  append_csv(r, &line);
  line.pop_back();
  TraceRecord back;
  ASSERT_TRUE(parse_csv(line, &back)) << line;
  EXPECT_EQ(back, r) << line;
}

TEST(CodecRoundTrip, FlowLifecycleRecordsKeepClassAndFctPrecision) {
  TraceRecord start;
  start.t = sim::Time::microseconds(5'000'000);
  start.type = RecordType::kFlowStart;
  start.flow = 12;
  start.v0 = 1;         // traffic-class index
  start.v1 = 450000.0;  // transfer bytes
  start.v2 = 1;         // dumbbell side
  TraceRecord end = start;
  end.t = sim::Time::microseconds(5'480'123);
  end.type = RecordType::kFlowEnd;
  end.v2 = 0.48012299999999998;  // FCT seconds, full double precision

  for (const TraceRecord& r : {start, end}) {
    std::string line;
    append_csv(r, &line);
    line.pop_back();
    TraceRecord back;
    ASSERT_TRUE(parse_csv(line, &back)) << line;
    EXPECT_EQ(back, r) << line;
  }
}

TEST(CodecRoundTrip, InfiniteValueRoundTrips) {
  // %.17g spells +inf as "inf". The codec is lossless for every double the
  // recorder is handed, so the strict number scanner must still take it.
  TraceRecord r;
  r.t = sim::Time::nanoseconds(42);
  r.type = RecordType::kCwndUpdate;
  r.v0 = std::numeric_limits<double>::infinity();
  r.v1 = -std::numeric_limits<double>::infinity();
  std::string line;
  append_csv(r, &line);
  line.pop_back();
  TraceRecord back;
  ASSERT_TRUE(parse_csv(line, &back)) << line;
  EXPECT_EQ(back, r) << line;
}

}  // namespace
}  // namespace elephant::trace

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "trace/codec.hpp"
#include "trace/sinks.hpp"

namespace elephant::trace {
namespace {

TraceRecord make_record(std::int64_t t_us, RecordType type, std::uint32_t flow,
                        std::uint64_t seq, double v0 = 0, double v1 = 0, double v2 = 0) {
  TraceRecord r;
  r.t = sim::Time::microseconds(t_us);
  r.type = type;
  r.flow = flow;
  r.seq = seq;
  r.v0 = v0;
  r.v1 = v1;
  r.v2 = v2;
  return r;
}

TEST(Tracer, RecordsReachSinkOnFlush) {
  MemorySink sink;
  Tracer tracer(sink, 16);
  tracer.record(make_record(1, RecordType::kCwndUpdate, 7, 0, 10.0));
  tracer.record(make_record(2, RecordType::kPacketSent, 7, 1, 8900.0));
  EXPECT_TRUE(sink.records().empty());  // buffered, not yet drained
  tracer.flush();
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[0].type, RecordType::kCwndUpdate);
  EXPECT_EQ(sink.records()[1].seq, 1u);
  EXPECT_EQ(tracer.recorded(), 2u);
}

TEST(Tracer, DrainModeSpillsAtCapacityWithoutLoss) {
  MemorySink sink;
  Tracer tracer(sink, 4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(make_record(i, RecordType::kPacketSent, 1, static_cast<std::uint64_t>(i)));
  }
  tracer.flush();
  ASSERT_EQ(sink.records().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.records()[i].seq, static_cast<std::uint64_t>(i));
  }
}

TEST(Tracer, MaskFiltersDisabledTypes) {
  MemorySink sink;
  Tracer tracer(sink, 16);
  EXPECT_TRUE(tracer.enabled(RecordType::kSackMark));
  tracer.enable_only({RecordType::kCwndUpdate, RecordType::kQueueDepth});
  EXPECT_FALSE(tracer.enabled(RecordType::kSackMark));
  tracer.record(make_record(1, RecordType::kCwndUpdate, 1, 0));
  tracer.record(make_record(2, RecordType::kSackMark, 1, 5));
  tracer.record(make_record(3, RecordType::kQueueDepth, 0, 0));
  tracer.enable_only({RecordType::kCwndUpdate, RecordType::kQueueDepth, RecordType::kSackMark});
  tracer.record(make_record(4, RecordType::kSackMark, 1, 6));
  tracer.flush();
  ASSERT_EQ(sink.records().size(), 3u);
  EXPECT_EQ(sink.records()[0].type, RecordType::kCwndUpdate);
  EXPECT_EQ(sink.records()[1].type, RecordType::kQueueDepth);
  EXPECT_EQ(sink.records()[2].seq, 6u);
}

TEST(Tracer, DestructorFlushes) {
  MemorySink sink;
  {
    Tracer tracer(sink, 16);
    tracer.record(make_record(1, RecordType::kRtoFire, 3, 9, 2.0, 400.0, 5.0));
  }
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].v1, 400.0);
}

TEST(Tracer, FlushIsIdempotent) {
  MemorySink sink;
  Tracer tracer(sink, 16);
  tracer.record(make_record(1, RecordType::kAqmDrop, 2, 11));
  tracer.flush();
  tracer.flush();
  EXPECT_EQ(sink.records().size(), 1u);
}

TEST(RecordType, NamesRoundTrip) {
  for (std::size_t i = 0; i < kRecordTypeCount; ++i) {
    const auto type = static_cast<RecordType>(i);
    RecordType parsed;
    ASSERT_TRUE(record_type_from_string(to_string(type), &parsed)) << to_string(type);
    EXPECT_EQ(parsed, type);
  }
  RecordType parsed;
  EXPECT_FALSE(record_type_from_string("nonsense", &parsed));
}

TEST(Codec, CsvRoundTripIsLossless) {
  // Awkward values on purpose: negative-exponent doubles, full uint64 seq,
  // sub-microsecond timestamps.
  std::vector<TraceRecord> records = {
      make_record(0, RecordType::kCwndUpdate, 1, 0, 10.000000000000002, 1.25e9, 62.125),
      make_record(123456789, RecordType::kAqmDrop, 4294967295u, 18446744073709551615ull,
                  -1.5e-300, 3.14159265358979312, 1.0),
      make_record(7, RecordType::kQueueDepth, 0, 0, 0.0, 0.1, 1e308),
      make_record(5000000, RecordType::kFlowStart, 12, 0, 1.0, 450000.0, 1.0),
      make_record(5480000, RecordType::kFlowEnd, 12, 0, 1.0, 450000.0, 0.48),
  };
  for (const TraceRecord& r : records) {
    std::string line;
    append_csv(r, &line);
    TraceRecord back;
    ASSERT_TRUE(parse_csv(line, &back)) << line;
    EXPECT_EQ(back, r) << line;
  }
}

TEST(Codec, ParseRejectsGarbage) {
  TraceRecord out;
  EXPECT_FALSE(parse_csv("", &out));
  EXPECT_FALSE(parse_csv(csv_header(), &out));
  EXPECT_FALSE(parse_csv("1,2,3", &out));
  EXPECT_FALSE(parse_csv("x,cwnd_update,1,0,0,0,0", &out));
  EXPECT_FALSE(parse_csv("1,not_a_type,1,0,0,0,0", &out));
  // Every numeric field must be consumed in full, not just its prefix.
  EXPECT_FALSE(parse_csv("1,cwnd_update,x,0,0,0,0", &out));
  EXPECT_FALSE(parse_csv("1,cwnd_update,1,0,0,0,", &out));
  EXPECT_FALSE(parse_csv("1zz,cwnd_update,1,0,0,0,0", &out));
}

TEST(Sinks, CsvSinkWritesHeaderAndRows) {
  std::ostringstream out;
  {
    CsvSink sink(out);
    Tracer tracer(sink, 8);
    tracer.record(make_record(1000, RecordType::kPacketSent, 7, 42, 8900.0, 3.0));
  }
  std::istringstream in(out.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(header, csv_header());
  TraceRecord back;
  ASSERT_TRUE(parse_csv(row, &back));
  EXPECT_EQ(back.flow, 7u);
  EXPECT_EQ(back.seq, 42u);
}

}  // namespace
}  // namespace elephant::trace

#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>

#include "exp/manifest.hpp"
#include "exp/sweep.hpp"
#include "obs/heartbeat.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace elephant::exp {
namespace {

/// A minimal parseable manifest line with the given escaped id text spliced
/// into the "id" field. The id value is inserted verbatim (already escaped),
/// so tests can exercise \uXXXX sequences an external tool may have written.
std::string line_with_id(const std::string& escaped_id) {
  return "{\"i\":0,\"id\":\"" + escaped_id +
         "\",\"status\":\"ok\",\"attempts\":1,\"reps\":1,\"s1_bps\":1,"
         "\"s2_bps\":1,\"jain2\":1,\"util\":0.5,\"retx\":0,\"rtos\":0,"
         "\"error\":\"\"}";
}

TEST(ManifestUnicode, TwoByteBmpEscapeDecodesToUtf8) {
  ManifestEntry e;
  ASSERT_TRUE(SweepManifest::parse_line(line_with_id("caf\\u00e9"), &e));
  EXPECT_EQ(e.id, "caf\xc3\xa9");  // é = U+00E9
}

TEST(ManifestUnicode, ThreeByteBmpEscapeDecodesToUtf8) {
  ManifestEntry e;
  ASSERT_TRUE(SweepManifest::parse_line(line_with_id("cost\\u20ac5"), &e));
  EXPECT_EQ(e.id, "cost\xe2\x82\xac" "5");  // € = U+20AC
}

TEST(ManifestUnicode, AsciiEscapeStaysAscii) {
  ManifestEntry e;
  ASSERT_TRUE(SweepManifest::parse_line(line_with_id("a\\u0041b"), &e));
  EXPECT_EQ(e.id, "aAb");
}

TEST(ManifestUnicode, SurrogatePairDecodesToFourByteUtf8) {
  ManifestEntry e;
  // U+1F600 as the 😀 pair.
  ASSERT_TRUE(SweepManifest::parse_line(line_with_id("x\\ud83d\\ude00y"), &e));
  EXPECT_EQ(e.id, "x\xf0\x9f\x98\x80y");
}

TEST(ManifestUnicode, LoneHighSurrogateFailsTheLine) {
  ManifestEntry e;
  EXPECT_FALSE(SweepManifest::parse_line(line_with_id("x\\ud83dy"), &e));
}

TEST(ManifestUnicode, LoneLowSurrogateFailsTheLine) {
  ManifestEntry e;
  EXPECT_FALSE(SweepManifest::parse_line(line_with_id("x\\ude00y"), &e));
}

TEST(ManifestUnicode, HighSurrogateFollowedByNonSurrogateFailsTheLine) {
  ManifestEntry e;
  EXPECT_FALSE(SweepManifest::parse_line(line_with_id("x\\ud83d\\u0041y"), &e));
}

TEST(ManifestUnicode, TruncatedHexDigitsFailTheLine) {
  ManifestEntry e;
  EXPECT_FALSE(SweepManifest::parse_line(line_with_id("x\\u00gqy"), &e));
}

TEST(ManifestUnicode, RawUtf8IdRoundTripsThroughFormatAndParse) {
  ManifestEntry e;
  e.index = 4;
  e.id = "caf\xc3\xa9-\xe2\x82\xac-\xf0\x9f\x90\x98";  // café-€-🐘
  e.status = RunStatus::kOk;
  e.attempts = 1;
  e.result.repetitions = 1;
  ManifestEntry back;
  ASSERT_TRUE(SweepManifest::parse_line(SweepManifest::format_line(e), &back));
  EXPECT_EQ(back.id, e.id);
}

TEST(ManifestUnicode, ControlCharacterEscapesRoundTrip) {
  // append_escaped writes control chars as \u00XX; the parser must decode
  // them back to the identical bytes.
  ManifestEntry e;
  e.index = 1;
  e.id = "id";
  e.status = RunStatus::kFailed;
  e.error = std::string("bell\x07null-ish\x01tab\tend");
  ManifestEntry back;
  ASSERT_TRUE(SweepManifest::parse_line(SweepManifest::format_line(e), &back));
  EXPECT_EQ(back.error, e.error);
}

/// One JSON-lines writer: a complete line as it emits it (without the
/// newline) and the reader that loads that line back.
struct JsonWriter {
  const char* name;
  std::string (*line)();
  bool (*parses)(const std::string&);
};

void PrintTo(const JsonWriter& w, std::ostream* os) { *os << w.name; }

std::string manifest_line() {
  ManifestEntry e;
  e.index = 12;
  e.id = "cubic_vs_bbr1-fifo-bdp2-1G";
  e.status = RunStatus::kOk;
  e.attempts = 1;
  e.result.repetitions = 3;
  e.result.sender_bps[0] = 4.2e8;
  e.result.sender_bps[1] = 3.9e8;
  e.result.jain2 = 0.998;
  e.result.utilization = 0.81;
  e.error = "torn mid-write";
  return SweepManifest::format_line(e);
}

/// The final line a real heartbeat appends, histograms included.
std::string heartbeat_line() {
  const std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("elephant_torn_heartbeat_" + std::to_string(::getpid()));
  std::filesystem::remove(path);
  obs::MetricsRegistry reg;
  reg.counter("sweep.cells_done").add(3);
  reg.gauge("sched.heap_depth").set(42.5);
  reg.histogram("sweep.cell_wall_s").record(0.25);
  {
    obs::Heartbeat::Options opts;
    opts.interval_s = 3600;
    opts.jsonl_path = path;
    opts.console = nullptr;
    opts.worker_tag = "w\"1";
    obs::Heartbeat hb(reg, opts, [](std::string* fields, std::string*) {
      *fields += "\"cells_done\":3,";
    });
    hb.start();
    hb.stop();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::filesystem::remove(path);
  return line;
}

class TornLine : public ::testing::TestWithParam<JsonWriter> {};

TEST_P(TornLine, EveryStrictPrefixIsRejected) {
  const std::string line = GetParam().line();
  ASSERT_FALSE(line.empty());
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(GetParam().parses(line.substr(0, len)))
        << "prefix of length " << len << " parsed: " << line.substr(0, len);
  }
  EXPECT_TRUE(GetParam().parses(line)) << line;
}

INSTANTIATE_TEST_SUITE_P(
    EveryWriter, TornLine,
    ::testing::Values(
        JsonWriter{"manifest", manifest_line,
                   [](const std::string& l) {
                     ManifestEntry e;
                     return SweepManifest::parse_line(l, &e);
                   }},
        JsonWriter{"heartbeat", heartbeat_line,
                   [](const std::string& l) {
                     obs::JournalSnapshot snap;
                     return obs::parse_journal_line(l, &snap);
                   }}),
    [](const ::testing::TestParamInfo<JsonWriter>& info) {
      return std::string(info.param.name);
    });

TEST(ManifestTornLine, TruncationInsideClassBlockIsRejected) {
  ManifestEntry e;
  e.index = 2;
  e.id = "workload-cell";
  e.status = RunStatus::kOk;
  ClassResult c;
  c.name = "mice";
  c.flows = 40;
  c.completed = 39;
  c.throughput_bps = 1.5e6;
  e.result.classes.push_back(c);
  c.name = "elephants";
  e.result.classes.push_back(c);
  const std::string line = SweepManifest::format_line(e);
  // Cut right after the first class object's closing brace: the line then
  // ends in '}' (passing the cheap brace check) but the class array has no
  // terminator, which must fail the whole line rather than yield one class.
  const std::size_t first_close = line.find("},", line.find("\"classes\":["));
  ASSERT_NE(first_close, std::string::npos);
  ManifestEntry out;
  EXPECT_FALSE(SweepManifest::parse_line(line.substr(0, first_close + 1), &out));
}

/// The journal entry the sweep writes for a cell it executed.
ManifestEntry executed_entry(std::size_t index, const std::string& id, const RunRecord& rec) {
  ManifestEntry e;
  e.index = index;
  e.id = id;
  e.status = rec.status;
  e.attempts = rec.attempts;
  e.result = rec.result;
  e.wall_s = rec.wall_s;
  e.error = rec.error;
  return e;
}

TEST(ManifestFormat, LinesMatchGolden) {
  // Resume and `elephant report` read journals written by older builds, so
  // the bytes of every line kind are pinned, not just their round trip.
  RunRecord ok;
  ok.status = RunStatus::kOk;
  ok.attempts = 1;
  ok.wall_s = 1.25;
  ok.result.repetitions = 2;
  ok.result.sender_bps[0] = 4.5e7;
  ok.result.sender_bps[1] = 5.25e7;
  ok.result.jain2 = 0.96875;
  ok.result.utilization = 0.1;
  ok.result.retx_segments = 12.5;
  ok.result.rtos = 1;
  ClassResult mice;
  mice.name = "mice";
  mice.flows = 40;
  mice.completed = 39;
  mice.throughput_bps = 8.25e6;
  mice.share = 0.09375;
  mice.jain = 0.5;
  mice.fct_p50_s = 0.125;
  mice.fct_p95_s = 0.75;
  mice.fct_p99_s = 1.5;
  mice.fct_mean_s = 0.25;
  mice.slowdown_p50 = 2.25;
  mice.slowdown_p95 = 8.5;
  mice.slowdown_p99 = 17;
  ok.result.classes = {mice};
  ok.result.episodes = 1.5;
  ok.result.episode_worst_jain = 0.625;
  ok.result.episode_worst_t_s = 3.75;
  ok.result.episode_victim = 2;
  ok.result.episode_cause = "rto";
  EXPECT_EQ(SweepManifest::format_line(executed_entry(4, "cell-ok", ok)),
            R"({"i":4,"id":"cell-ok","status":"ok","attempts":1,"reps":2,)"
            R"("s1_bps":45000000,"s2_bps":52500000,"jain2":0.96875,)"
            R"("util":0.10000000000000001,"retx":12.5,"rtos":1,)"
            R"("classes":[{"name":"mice","flows":40,"done":39,"bps":8250000,)"
            R"("share":0.09375,"cjain":0.5,"fct_p50":0.125,"fct_p95":0.75,)"
            R"("fct_p99":1.5,"fct_mean":0.25,"sd_p50":2.25,"sd_p95":8.5,"sd_p99":17}],)"
            R"("wall_s":1.25,"episodes":{"count":1.5,"worst_jain":0.625,"worst_t":3.75,)"
            R"("victim":2,"cause":"rto"},"error":""})");

  // Claim lines carry the numeric fields too, at their journal defaults.
  ManifestEntry claim;
  claim.index = 7;
  claim.id = "cell-claim";
  claim.status = RunStatus::kClaimed;
  claim.attempts = 0;
  claim.worker = "w1";
  claim.lease_until_unix_s = 1700000060.5;
  EXPECT_EQ(SweepManifest::format_line(claim),
            R"({"i":7,"id":"cell-claim","status":"claimed","attempts":0,"reps":0,)"
            R"("s1_bps":0,"s2_bps":0,"jain2":0,"util":0,"retx":0,"rtos":0,)"
            R"("worker":"w1","lease_until":1700000060.500,"error":""})");

  // A failed cell journals a default-constructed result.
  RunRecord failed;
  failed.status = RunStatus::kFailed;
  failed.attempts = 3;
  failed.wall_s = 0.5;
  failed.error = "unknown aqm \"x\"\n";
  EXPECT_EQ(SweepManifest::format_line(executed_entry(9, "cell-failed", failed)),
            R"({"i":9,"id":"cell-failed","status":"failed","attempts":3,"reps":0,)"
            R"("s1_bps":0,"s2_bps":0,"jain2":1,"util":0,"retx":0,"rtos":0,)"
            R"("wall_s":0.5,"error":"unknown aqm \"x\"\n"})");
}

TEST(ManifestFormat, ExtremeValuesRoundTripWithoutTruncation) {
  // Worst-case field widths: every double at full %.17g width, saturated
  // counters, and a long per-class list. A fixed-size formatting buffer
  // would truncate this line; the append path must grow instead.
  ManifestEntry e;
  e.index = 18446744073709551615ull % 1000000;
  e.id = std::string(64, 'x');
  e.status = RunStatus::kOk;
  e.attempts = 2147483647;
  e.result.repetitions = 2147483647;
  e.result.sender_bps[0] = -1.7976931348623157e308;
  e.result.sender_bps[1] = 2.2250738585072014e-308;
  e.result.jain2 = 0.12345678901234567;
  e.result.utilization = 0.98765432109876543;
  e.result.retx_segments = 1.2345678901234567e300;
  e.result.rtos = -2.3456789012345678e-300;
  for (int i = 0; i < 24; ++i) {
    ClassResult c;
    c.name = "class-with-a-deliberately-long-name-" + std::to_string(i);
    c.flows = 4294967295u;
    c.completed = 4294967294u;
    c.throughput_bps = 1.7976931348623157e308;
    c.share = 1.2345678901234567e-5;
    c.jain = 0.99999999999999989;
    c.fct_p50_s = 1.1111111111111111e-3;
    c.fct_p95_s = 2.2222222222222222e-3;
    c.fct_p99_s = 3.3333333333333333e-3;
    c.fct_mean_s = 4.4444444444444444e-3;
    c.slowdown_p50 = 5.5555555555555555e5;
    c.slowdown_p95 = 6.6666666666666666e5;
    c.slowdown_p99 = 7.7777777777777777e5;
    e.result.classes.push_back(std::move(c));
  }
  ManifestEntry back;
  ASSERT_TRUE(SweepManifest::parse_line(SweepManifest::format_line(e), &back));
  EXPECT_EQ(back.id, e.id);
  ASSERT_EQ(back.result.classes.size(), e.result.classes.size());
  for (std::size_t i = 0; i < e.result.classes.size(); ++i) {
    EXPECT_EQ(back.result.classes[i].name, e.result.classes[i].name);
    EXPECT_EQ(back.result.classes[i].flows, e.result.classes[i].flows);
    EXPECT_DOUBLE_EQ(back.result.classes[i].throughput_bps,
                     e.result.classes[i].throughput_bps);
    EXPECT_DOUBLE_EQ(back.result.classes[i].slowdown_p99, e.result.classes[i].slowdown_p99);
  }
  EXPECT_DOUBLE_EQ(back.result.sender_bps[0], e.result.sender_bps[0]);
  EXPECT_DOUBLE_EQ(back.result.sender_bps[1], e.result.sender_bps[1]);
  EXPECT_DOUBLE_EQ(back.result.retx_segments, e.result.retx_segments);
  EXPECT_DOUBLE_EQ(back.result.rtos, e.result.rtos);
}

}  // namespace
}  // namespace elephant::exp

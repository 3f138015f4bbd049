// trace2csv: normalize a flight-recorder trace to CSV on stdout.
//
// Reads a trace written by CsvSink (concatenated files work: their extra
// header rows are skipped), optionally filters by record type and/or flow,
// and emits canonical CSV. The round trip is lossless: timestamps stay
// integer nanoseconds and values keep max_digits10 form. A --flow that is not
// a whole non-negative integer is a usage error (exit 2).
//
// Usage:
//   trace2csv <trace-file> [--type cwnd_update] [--flow 3]
//   trace2csv -            # read stdin

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "trace/codec.hpp"
#include "trace/trace.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <trace-file|-> [--type <record-type>] [--flow <id>]\n"
               "record types:", prog);
  for (std::size_t i = 0; i < elephant::trace::kRecordTypeCount; ++i) {
    std::fprintf(stderr, " %s",
                 elephant::trace::to_string(static_cast<elephant::trace::RecordType>(i)));
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace elephant::trace;

  std::string path;
  std::optional<RecordType> only_type;
  std::optional<std::uint32_t> only_flow;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--type") == 0 && i + 1 < argc) {
      RecordType t;
      if (!record_type_from_string(argv[++i], &t)) return usage(argv[0]);
      only_type = t;
    } else if (std::strcmp(argv[i], "--flow") == 0 && i + 1 < argc) {
      std::uint32_t flow = 0;
      if (!elephant::obs::json::scan_number(std::string_view(argv[++i]), &flow)) {
        std::fprintf(stderr, "--flow: '%s' is not a flow id\n", argv[i]);
        return usage(argv[0]);
      }
      only_flow = flow;
    } else if (argv[i][0] != '-' || std::strcmp(argv[i], "-") == 0) {
      if (!path.empty()) return usage(argv[0]);  // two trace files
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
  }
  std::istream& in = path == "-" ? std::cin : file;

  std::string out = csv_header();
  out += '\n';
  std::fputs(out.c_str(), stdout);

  std::string line;
  std::uint64_t emitted = 0;
  std::uint64_t skipped = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceRecord r;
    if (!parse_csv(line, &r)) {
      // Headers of concatenated CSV files land here too; count silently
      // unless nothing at all parses.
      ++skipped;
      continue;
    }
    if (only_type && r.type != *only_type) continue;
    if (only_flow && r.flow != *only_flow) continue;
    out.clear();
    append_csv(r, &out);
    std::fputs(out.c_str(), stdout);
    ++emitted;
  }
  if (emitted == 0 && skipped > 0) {
    std::fprintf(stderr, "no parsable trace records in %s (%llu lines skipped)\n",
                 path.c_str(), static_cast<unsigned long long>(skipped));
    return 1;
  }
  return 0;
}

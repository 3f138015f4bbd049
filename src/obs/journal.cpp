#include "obs/journal.hpp"

#include <fstream>
#include <optional>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace elephant::obs {

namespace {

using json::Value;

// Read {"name":number,...} into the given map.
template <typename Map>
bool read_number_map(const Value& obj, Map* out) {
  if (!obj.is(Value::Kind::kObject)) return false;
  for (const auto& [key, v] : obj.object) {
    if (!v.is(Value::Kind::kNumber)) return false;
    (*out)[key] = static_cast<typename Map::mapped_type>(v.number);
  }
  return true;
}

bool read_histogram(const Value& obj, LogLinHistogram* h) {
  if (!obj.is(Value::Kind::kObject)) return false;
  double count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  // Absent fields read as 0; present ones must be numbers. p50/p95/p99 are
  // derived from the buckets, so they are not read back.
  const auto field = [&obj](std::string_view key, double* v) {
    const Value* f = obj.find(key);
    if (f == nullptr) return true;
    *v = f->number;
    return f->is(Value::Kind::kNumber);
  };
  if (!field("count", &count) || !field("sum", &sum) || !field("min", &min) ||
      !field("max", &max) || !field("mean", &mean)) {
    return false;
  }
  const Value* buckets = obj.find("buckets");
  if (buckets != nullptr) {
    if (!buckets->is(Value::Kind::kArray)) return false;
    for (const Value& b : buckets->array) {
      if (!b.is(Value::Kind::kArray) || b.array.size() != 2 ||
          !b.array[0].is(Value::Kind::kNumber) || !b.array[1].is(Value::Kind::kNumber)) {
        return false;
      }
      h->add_bucket(static_cast<std::size_t>(b.array[0].number),
                    static_cast<std::uint64_t>(b.array[1].number));
    }
  } else if (count > 0) {
    // Pre-bucket-dump journal: lossy reconstruction at the recorded mean.
    h->record_n(mean, static_cast<std::uint64_t>(count));
  }
  h->restore_summary(sum, min, max);
  return true;
}

}  // namespace

bool parse_journal_line(std::string_view line, JournalSnapshot* out) {
  const std::optional<Value> doc = json::parse(line);
  if (!doc || !doc->is(Value::Kind::kObject)) return false;
  for (const auto& [key, v] : doc->object) {
    if (key == "elapsed_s") {
      if (!v.is(Value::Kind::kNumber)) return false;
      out->elapsed_s = v.number;
    } else if (key == "final") {
      if (!v.is(Value::Kind::kBool)) return false;
      out->final_snapshot = v.boolean;
    } else if (key == "counters") {
      if (!read_number_map(v, &out->counters)) return false;
    } else if (key == "gauges") {
      if (!read_number_map(v, &out->gauges)) return false;
    } else if (key == "histograms") {
      if (!v.is(Value::Kind::kObject)) return false;
      for (const auto& [name, h] : v.object) {
        if (!read_histogram(h, &out->histograms[name])) return false;
      }
    } else if (v.is(Value::Kind::kNumber)) {
      out->extra[key] = v.number;
    }
  }
  return true;
}

bool read_final_snapshot(const std::filesystem::path& path, JournalSnapshot* out,
                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path.string();
    return false;
  }
  bool found = false;
  std::string line;
  JournalSnapshot last;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalSnapshot snap;
    if (!parse_journal_line(line, &snap)) continue;  // tolerate a torn tail
    last = std::move(snap);
    found = true;
    // Keep scanning: a later final snapshot (or tick) supersedes.
  }
  if (!found) {
    if (error != nullptr) *error = "no parseable journal line in " + path.string();
    return false;
  }
  *out = std::move(last);
  return true;
}

void merge_into(const JournalSnapshot& snap, MetricsRegistry* reg) {
  for (const auto& [name, v] : snap.counters) reg->counter(name).add(v);
  for (const auto& [name, v] : snap.gauges) reg->gauge(name).set(v);
  for (const auto& [name, h] : snap.histograms) {
    LogLinHistogram& dest = reg->histogram(name);
    std::lock_guard lock(reg->mutex());
    dest.merge(h);
  }
}

}  // namespace elephant::obs

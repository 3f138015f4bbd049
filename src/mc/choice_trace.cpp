#include "mc/choice_trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/json.hpp"

namespace elephant::mc {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

constexpr const char* kHeader = "elephant-choice-trace v3";

/// Reads "key value" where value is the rest of the line (may be empty).
bool take_line(std::istringstream& in, const char* key, std::string* value,
               std::string* error) {
  std::string line;
  if (!std::getline(in, line)) {
    *error = std::string("unexpected end of trace, wanted '") + key + "'";
    return false;
  }
  const std::size_t klen = std::char_traits<char>::length(key);
  if (line.compare(0, klen, key) != 0 || (line.size() > klen && line[klen] != ' ')) {
    *error = std::string("expected '") + key + " ...', got '" + line + "'";
    return false;
  }
  value->clear();
  if (line.size() > klen + 1) value->assign(line, klen + 1, std::string::npos);
  return true;
}

/// Reads "key <number>"; the whole value must be one number in `base`.
template <typename T>
bool take_number(std::istringstream& in, const char* key, T* out, std::string* error,
                 int base = 10) {
  std::string v;
  if (!take_line(in, key, &v, error)) return false;
  if (!obs::json::scan_number(v, out, base)) {
    *error = std::string("bad ") + key + " value '" + v + "'";
    return false;
  }
  return true;
}

/// Parses a "kind n_branches chosen" row: three numbers, one space apart, a
/// known ChoiceKind, and a chosen branch inside the available ones.
bool parse_row(std::string_view line, ChoiceRec* out) {
  constexpr auto npos = std::string_view::npos;
  const std::size_t a = line.find(' ');
  const std::size_t b = a == npos ? npos : line.find(' ', a + 1);
  unsigned kind = 0;
  if (b == npos || !obs::json::scan_number(line.substr(0, a), &kind) ||
      !obs::json::scan_number(line.substr(a + 1, b - a - 1), &out->n_branches) ||
      !obs::json::scan_number(line.substr(b + 1), &out->chosen)) {
    return false;
  }
  out->kind = static_cast<sim::ChoiceKind>(kind);
  return kind < sim::kChoiceKindCount && out->chosen < out->n_branches;
}

}  // namespace

std::string ChoiceTrace::serialize() const {
  std::string out;
  out += std::string(kHeader) + "\n";
  out += "config " + config_id + "\n";
  out += "oracle " + oracle + "\n";
  out += "detail " + detail + "\n";
  out += "at_s " + num(at_s) + "\n";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, state_hash);
  out += std::string("state_hash ") + hex + "\n";
  out += "horizon_s " + num(horizon_s) + "\n";
  out += "window_s " + num(window_s) + "\n";
  out += "jain_floor " + num(jain_floor) + "\n";
  out += "retx_storm " + std::to_string(retx_storm_segments) + "\n";
  out += "max_events " + std::to_string(max_schedule_events) + "\n";
  out += "choices " + std::to_string(choices.size()) + "\n";
  for (const ChoiceRec& c : choices) {
    out += std::to_string(static_cast<unsigned>(c.kind)) + " " +
           std::to_string(c.n_branches) + " " + std::to_string(c.chosen) + "\n";
  }
  return out;
}

bool ChoiceTrace::parse(const std::string& text, ChoiceTrace* out, std::string* error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    *error = line == "elephant-choice-trace v1" || line == "elephant-choice-trace v2"
                 ? "choice trace " + line.substr(line.size() - 2) +
                       " was written by an older engine whose state hashes "
                       "cannot match this build; re-run the exploration"
                 : "not a choice trace (bad header)";
    return false;
  }
  ChoiceTrace t;
  std::uint64_t n = 0;
  if (!take_line(in, "config", &t.config_id, error) ||
      !take_line(in, "oracle", &t.oracle, error) ||
      !take_line(in, "detail", &t.detail, error) ||
      !take_number(in, "at_s", &t.at_s, error) ||
      !take_number(in, "state_hash", &t.state_hash, error, 16) ||
      !take_number(in, "horizon_s", &t.horizon_s, error) ||
      !take_number(in, "window_s", &t.window_s, error) ||
      !take_number(in, "jain_floor", &t.jain_floor, error) ||
      !take_number(in, "retx_storm", &t.retx_storm_segments, error) ||
      !take_number(in, "max_events", &t.max_schedule_events, error) ||
      !take_number(in, "choices", &n, error)) {
    return false;
  }
  // The count is untrusted: rows are appended as they parse, never reserved.
  for (std::uint64_t i = 0; i < n; ++i) {
    ChoiceRec rec;
    if (!std::getline(in, line) || !parse_row(line, &rec)) {
      *error = "bad choice row " + std::to_string(i) + " of " + std::to_string(n);
      return false;
    }
    t.choices.push_back(rec);
  }
  if (std::getline(in, line)) {
    *error = "trailing data after " + std::to_string(n) + " choice rows";
    return false;
  }
  *out = std::move(t);
  return true;
}

bool ChoiceTrace::write_file(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << serialize();
  return static_cast<bool>(f.flush());
}

bool ChoiceTrace::read_file(const std::string& path, ChoiceTrace* out, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str(), out, error);
}

}  // namespace elephant::mc

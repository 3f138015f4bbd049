#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace elephant::obs {

/// JSON string escaping for every JSON line the simulator writes (manifest,
/// heartbeat journal, metrics export, sweep report): quotes, backslashes and
/// control characters; every other byte, UTF-8 included, passes through.
void append_json_escaped(std::string_view s, std::string* out);

/// printf onto the end of `*out`. Never truncates: when the stack buffer is
/// too small the append retries with an exact-size one, because a cut-off
/// JSON line is unreadable (a manifest line would be skipped on --resume).
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string* out, const char* fmt, ...);

namespace json {

/// Read all of `text` as one number of type T with std::from_chars. False
/// unless every byte is consumed and the value fits T, so "1zz", "" and
/// "1.5" as an integer are all rejected. Integers are read in `base` (16
/// for hex digests, no "0x" prefix); floating types ignore it and accept
/// the inf/nan spellings that printf's %g writes.
template <typename T>
[[nodiscard]] bool scan_number(std::string_view text, T* out, int base = 10) {
  const char* end = text.data() + text.size();
  std::from_chars_result r;
  if constexpr (std::is_integral_v<T>) {
    r = std::from_chars(text.data(), end, *out, base);
  } else {
    r = std::from_chars(text.data(), end, *out);
  }
  return r.ec == std::errc() && r.ptr == end;
}

/// One parsed JSON value. Objects keep their members in line order.
struct Value {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  /// A string's decoded bytes, or a number's source spelling (so integer
  /// fields can be re-scanned exactly with scan_number).
  std::string text;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is(Kind k) const { return kind == k; }

  /// The first member named `key`; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// The number under `key`, scanned exactly into T. False when the member
  /// is absent, not a number, or not representable in T.
  template <typename T>
  [[nodiscard]] bool number_at(std::string_view key, T* out) const {
    const Value* v = find(key);
    return v != nullptr && v->is(Kind::kNumber) && scan_number(v->text, out);
  }

  /// The string under `key`; false when absent or not a string.
  [[nodiscard]] bool string_at(std::string_view key, std::string* out) const;
};

/// Parse one JSON text (one JSONL line). Strict: the whole input must be a
/// single value apart from surrounding whitespace, strings must not hold raw
/// control characters, escapes must be one of JSON's eight plus \uXXXX
/// (surrogate pairs decode to UTF-8; a stray half is an error), and numbers
/// are std::from_chars spellings bounded by the input's end. Any violation,
/// such as a line torn mid-write, returns nullopt.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

}  // namespace json
}  // namespace elephant::obs

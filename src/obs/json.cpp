#include "obs/json.hpp"

#include <cstdarg>
#include <cstdio>

namespace elephant::obs {

void append_json_escaped(std::string_view s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

void appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n < 0) return;  // encoding error: nothing sane to append
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out->append(buf, static_cast<std::size_t>(n));
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<std::size_t>(n));
  *out += big;
}

namespace json {

namespace {

/// Containers nest at most this deep. Every writer stays under 5; the bound
/// keeps a corrupt line from recursing the reader off its stack.
constexpr int kMaxDepth = 64;

/// UTF-8 encode one code point (caller guarantees a valid scalar value).
void append_utf8(std::uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Recursive-descent reader over one line. Every method returns false on
/// malformed input and never reads past `end`.
struct Parser {
  const char* p;
  const char* end;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
  }

  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (!std::string_view(p, static_cast<std::size_t>(end - p)).starts_with(lit)) return false;
    p += lit.size();
    return true;
  }

  bool hex4(std::uint32_t* out) {
    if (end - p < 4) return false;
    const auto [ptr, ec] = std::from_chars(p, p + 4, *out, 16);
    if (ec != std::errc() || ptr != p + 4) return false;
    p += 4;
    return true;
  }

  /// The code point of a \u escape whose `\u` is already consumed; a high
  /// surrogate must be followed by an escaped low one.
  bool code_point(std::uint32_t* cp) {
    if (!hex4(cp)) return false;
    if (*cp >= 0xDC00 && *cp <= 0xDFFF) return false;  // stray low half
    if (*cp < 0xD800 || *cp > 0xDBFF) return true;
    std::uint32_t lo;
    if (end - p < 2 || p[0] != '\\' || p[1] != 'u') return false;
    p += 2;
    if (!hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
    *cp = 0x10000 + ((*cp - 0xD800) << 10) + (lo - 0xDC00);
    return true;
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (p < end) {
      const char c = *p++;
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control byte
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p == end) return false;
      switch (*p++) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t cp;
          if (!code_point(&cp)) return false;
          append_utf8(cp, out);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool object(Value* out) {
    out->kind = Value::Kind::kObject;
    if (eat('}')) return true;
    do {
      auto& [key, member] = out->object.emplace_back();
      if (!string(&key) || !eat(':') || !value(&member)) return false;
    } while (eat(','));
    return eat('}');
  }

  bool array(Value* out) {
    out->kind = Value::Kind::kArray;
    if (eat(']')) return true;
    do {
      if (!value(&out->array.emplace_back())) return false;
    } while (eat(','));
    return eat(']');
  }

  bool value(Value* out) {
    skip_ws();
    if (p == end) return false;
    if (*p == '{' || *p == '[') {
      if (++depth > kMaxDepth) return false;
      const bool ok = *p++ == '{' ? object(out) : array(out);
      --depth;
      return ok;
    }
    if (*p == '"') {
      out->kind = Value::Kind::kString;
      return string(&out->text);
    }
    if (literal("null")) return true;
    if (literal("true")) {
      out->kind = Value::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->kind = Value::Kind::kBool;
      return true;
    }
    const auto [ptr, ec] = std::from_chars(p, end, out->number);
    if (ec != std::errc()) return false;
    out->kind = Value::Kind::kNumber;
    out->text.assign(p, ptr);
    p = ptr;
    return true;
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [name, member] : object) {
    if (name == key) return &member;
  }
  return nullptr;
}

bool Value::string_at(std::string_view key, std::string* out) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is(Kind::kString)) return false;
  *out = v->text;
  return true;
}

std::optional<Value> parse(std::string_view text) {
  Parser in{text.data(), text.data() + text.size()};
  Value v;
  if (!in.value(&v)) return std::nullopt;
  in.skip_ws();
  if (in.p != in.end) return std::nullopt;
  return v;
}

}  // namespace json
}  // namespace elephant::obs

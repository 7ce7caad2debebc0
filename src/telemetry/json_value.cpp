#include "telemetry/json_value.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace radiomc::telemetry {

namespace {
const JsonValue kNullSentinel;
}  // namespace

std::optional<std::uint64_t> JsonValue::as_uint(
    std::uint64_t max) const noexcept {
  // 0x1p64 bounds the cast; NaN fails the first comparison.
  if (!is_number() || !(num_ >= 0.0) || num_ >= 0x1p64 ||
      num_ != std::floor(num_))
    return std::nullopt;
  const auto u = static_cast<std::uint64_t>(num_);
  if (u > max) return std::nullopt;
  return u;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const noexcept {
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNullSentinel;
}

// Builds every value in place (into `*out`, or into a freshly emplaced
// array item / object member): the trace reader parses one document per
// line of a 10^6-line file, where a temporary-and-move per value costs
// more than the scanning.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult r;
    if (!parse_value(&r.value)) {
      r.error = error_;
      return r;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
      r.error = error_;
      return r;
    }
    r.ok = true;
    return r;
  }

 private:
  // The trace writer's widest record has 10 members.
  static constexpr std::size_t kMemberReserve = 10;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  bool expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return parse_string(&out->str_);
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return literal("true");
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    if (!expect('{')) return false;
    out->kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    auto& members = out->obj_;
    members.reserve(kMemberReserve);
    for (;;) {
      skip_ws();
      auto& [key, value] = members.emplace_back();
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      if (!parse_value(&value)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    if (!expect('[')) return false;
    out->kind_ = JsonValue::Kind::kArray;
    auto& items = out->arr_;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!parse_value(&items.emplace_back())) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    std::string& s = *out;
    while (pos_ < text_.size()) {
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\')
        ++end;
      s.append(text_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) break;
      if (text_[pos_++] == '"') return true;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writers; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            s += static_cast<char>(cp);
          } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool plain = pos_ == start;  // unsigned digits only, so far
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      plain = plain && is_digit(text_[pos_]);
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    out->kind_ = JsonValue::Kind::kNumber;
    // Up to 15 digits is below 2^53, so the integer is exact as a double
    // and strtod would return the same value.
    if (plain && pos_ - start <= 15) {
      std::uint64_t v = 0;
      for (std::size_t i = start; i < pos_; ++i)
        v = v * 10 + static_cast<std::uint64_t>(text_[i] - '0');
      out->num_ = static_cast<double>(v);
      return true;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* endp = nullptr;
    const double d = std::strtod(token.c_str(), &endp);
    if (endp == nullptr || *endp != '\0') {
      pos_ = start;
      return fail("malformed number");
    }
    if (!std::isfinite(d)) {
      pos_ = start;
      return fail("number out of double range");
    }
    out->num_ = d;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

JsonParseResult parse_json(std::string_view text) {
  return JsonParser(text).run();
}

JsonParseResult parse_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    JsonParseResult r;
    r.error = "cannot open " + path;
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonParseResult r = parse_json(buf.str());
  if (!r.ok) r.error = path + ": " + r.error;
  return r;
}

}  // namespace radiomc::telemetry

#pragma once

// A small recursive-descent JSON parser producing an immutable value tree:
// the reading half of json_writer.h and the repo's one JSON reader. The
// offline tools read back what the repo's writers emit through it —
// `radiomc_trace` (radiomc.trace/v2, one line at a time), `radiomc_monitor`
// (snap/v1 and health/v1 streams) and `radiomc_perf` (perf/v1 reports and
// bench/v1 tables) — and the tests use it to pin the documents' schemas.
//
// Subset: RFC 8259 minus surrogate pairs (a \uXXXX escape is decoded to
// the UTF-8 of that one code point). Numbers are held as doubles, and a
// number that does not fit a finite double (`1e999`) is a parse error.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace radiomc::telemetry {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  JsonValue() : kind_(Kind::kNull) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool(bool dflt = false) const noexcept {
    return is_bool() ? bool_ : dflt;
  }
  double as_double(double dflt = 0.0) const noexcept {
    return is_number() ? num_ : dflt;
  }
  std::int64_t as_int(std::int64_t dflt = 0) const noexcept {
    return is_number() ? static_cast<std::int64_t>(num_) : dflt;
  }
  /// The checked unsigned read for counts, ids and slots: the value iff
  /// it is a number holding an integer in [0, max], nullopt otherwise
  /// (wrong kind, negative, fractional or too large).
  std::optional<std::uint64_t> as_uint(
      std::uint64_t max = UINT64_MAX) const noexcept;
  const std::string& as_string() const noexcept { return str_; }

  const std::vector<JsonValue>& items() const noexcept { return arr_; }
  /// Object members in document order (writers emit deterministically, so
  /// order is meaningful for golden comparisons).
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return obj_;
  }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Member lookup; null-kind sentinel when absent or not an object.
  const JsonValue& at(std::string_view key) const noexcept;
  /// True iff the member exists (even with a null value).
  bool has(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }

 private:
  friend class JsonParser;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

struct JsonParseResult {
  bool ok = false;
  std::string error;   ///< non-empty iff !ok; includes a byte offset
  JsonValue value;     ///< valid iff ok
};

/// Parses one JSON document; trailing whitespace is permitted, trailing
/// garbage is an error.
JsonParseResult parse_json(std::string_view text);

/// Reads and parses a whole file; a missing/unreadable file is an error,
/// not an exception.
JsonParseResult parse_json_file(const std::string& path);

}  // namespace radiomc::telemetry

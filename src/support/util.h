#pragma once

// Small arithmetic and input-checking helpers shared across the library.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace radiomc {

/// ceil(log2(x)) for x >= 1; ceil_log2(1) == 0.
constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  std::uint32_t bits = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

static_assert(ceil_log2(1) == 0);
static_assert(ceil_log2(2) == 1);
static_assert(ceil_log2(3) == 2);
static_assert(ceil_log2(1024) == 10);
static_assert(ceil_log2(1025) == 11);

/// The Decay protocol length for a degree bound `max_degree`:
/// 2 * ceil(log2 Delta), at least 2 so that Decay is well defined even on
/// degree-1 neighborhoods.
constexpr std::uint32_t decay_length(std::uint32_t max_degree) noexcept {
  const std::uint32_t l = 2 * ceil_log2(max_degree < 2 ? 2 : max_degree);
  return l < 2 ? 2 : l;
}

/// Throws std::invalid_argument with `msg` when `cond` is false. Used to
/// validate public API preconditions (Core Guidelines I.6).
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// The checked number parser for command-line and spec input: `text` must
/// be a whole unsigned decimal integer no larger than `max`. Empty input, a
/// sign, trailing junk and out-of-range values throw std::invalid_argument
/// naming the field `what` (unlike strtoull, which negates a leading '-'
/// and stops at junk).
inline std::uint64_t parse_unsigned(
    const std::string& text, const std::string& what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  require(!text.empty() && ptr == end,
          what + " '" + text + "' is not an unsigned decimal integer");
  require(ec != std::errc::result_out_of_range && v <= max,
          what + " '" + text + "' exceeds the maximum " + std::to_string(max));
  return v;
}

/// parse_unsigned's twin for real fields: a finite, unsigned decimal number
/// ("0.25", "1e-3"); the caller checks the range. No whitespace, hex or
/// sign is accepted, and each way to fail has its own message.
inline double parse_real(const std::string& text, const std::string& what) {
  double v = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  const std::string quoted = what + " '" + text + "'";
  require(ptr != begin, quoted + " is not a number");
  require(ptr == end, quoted + " has trailing junk");
  require(text[0] != '-', quoted + " is negative");
  require(ec == std::errc() && std::isfinite(v),
          quoted + " is out of range");
  return v;
}

}  // namespace radiomc

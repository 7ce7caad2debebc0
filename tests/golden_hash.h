#pragma once

// FNV-1a digests for golden tests: pin a large output (a trace stream, a
// metrics document) by one 64-bit value instead of a checked-in file.

#include <cstdint>
#include <streambuf>
#include <string_view>
#include <vector>

namespace radiomc {

/// FNV-1a over a word or byte stream.
class Fnv {
 public:
  void byte(unsigned char c) noexcept { h_ = (h_ ^ c) * 0x100000001b3ULL; }
  void word(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void bytes(std::string_view s) noexcept {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  template <typename T>
  void words(const std::vector<T>& v) {
    word(v.size());
    for (const T x : v) word(static_cast<std::uint64_t>(x));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hashes every byte written to it: a stream is checked without storing.
class HashingBuf final : public std::streambuf {
 public:
  std::uint64_t value() const noexcept { return fnv_.value(); }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      fnv_.byte(static_cast<unsigned char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    fnv_.bytes(std::string_view(s, static_cast<std::size_t>(n)));
    return n;
  }

 private:
  Fnv fnv_;
};

}  // namespace radiomc

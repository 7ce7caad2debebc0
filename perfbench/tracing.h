#pragma once

// Host-side tracing for the benchmark: spans recorded from outside the
// library around each layer call, plus a slot hook that times engine slots
// and setup epochs. Nothing here is read back by the simulation, so a
// traced run simulates exactly what a bare run does (the digest check in
// main.cpp holds both to that).

#include <cstdint>
#include <string>
#include <vector>

#include "radio/trace.h"

namespace perfbench {

/// Latency histogram with 16 log-spaced buckets per octave (a quantile is
/// interpolated within its bucket, so it is within ~6 % of the true value),
/// so millions of slot samples cost O(1) memory.
class LogHistogram {
 public:
  void add(std::uint64_t ns);
  void merge(const LogHistogram& other);
  /// The q-quantile (0 <= q < 1); 0 when empty.
  double quantile(double q) const;
  std::uint64_t count() const noexcept { return count_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root span
};

/// Spans kept in memory as (name, start, end, parent). Single-threaded.
class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int id);
  /// Appends an already-timed span under `parent`.
  void add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
           int parent);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Per span: its duration minus the part of it its children cover.
  std::vector<std::uint64_t> self_ns() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Scope {
 public:
  Scope(Tracer* t, std::string name)
      : t_(t), id_(t != nullptr ? t->open(std::move(name)) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Times every engine slot on the host (the interval between consecutive
/// end-of-slot callbacks). With `slots_per_phase` > 0 it also sums the
/// slots that open a collection phase (where drivers do their per-phase
/// bookkeeping) and times whole phases. With `marks` it stamps the host
/// time at which those slot counts were reached (setup epoch boundaries).
class SlotClock final : public radiomc::SlotHook {
 public:
  explicit SlotClock(std::uint64_t slots_per_phase = 0,
                     std::vector<radiomc::SlotTime> marks = {});
  void on_slot_done(radiomc::SlotTime t) override;

  LogHistogram slot_ns;
  LogHistogram phase_ns;
  std::uint64_t timed_ns = 0;     ///< sum of all timed slot intervals
  std::uint64_t boundary_ns = 0;  ///< part of timed_ns in phase-opening slots
  std::vector<std::uint64_t> mark_ns;  ///< host time per reached mark

 private:
  std::uint64_t spp_;
  std::vector<radiomc::SlotTime> marks_;
  std::uint64_t last_ns_ = 0;
  std::uint64_t phase_start_ns_ = 0;
};

}  // namespace perfbench

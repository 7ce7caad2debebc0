#include "tracing.h"

#include <bit>
#include <utility>

#include "support/stopwatch.h"

namespace perfbench {

namespace {

constexpr unsigned kSubBits = 4;  // 16 buckets per octave
constexpr std::uint64_t kSub = 1u << kSubBits;

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const unsigned octave = 63u - static_cast<unsigned>(std::countl_zero(ns));
  const unsigned shift = octave - kSubBits;
  return static_cast<std::size_t>(kSub * (shift + 1) +
                                  ((ns >> shift) & (kSub - 1)));
}

/// Bucket b covers [lower, lower + width).
std::pair<double, double> bucket_range(std::size_t b) {
  if (b < kSub) return {static_cast<double>(b), 1.0};
  const std::uint64_t shift = b / kSub - 1;
  return {static_cast<double>((kSub + b % kSub) << shift),
          static_cast<double>(1ull << shift)};
}

}  // namespace

void LogHistogram::add(std::uint64_t ns) {
  const std::size_t b = bucket_of(ns);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size())
    buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < other.buckets_.size(); ++b)
    buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  std::size_t b = 0;
  while (seen + buckets_[b] <= rank) seen += buckets_[b++];
  // Spread the bucket's samples evenly over its range.
  const auto [lower, width] = bucket_range(b);
  return lower + width * (static_cast<double>(rank - seen) + 0.5) /
                     static_cast<double>(buckets_[b]);
}

int Tracer::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::uint64_t now = radiomc::monotonic_now_ns();
  spans_.push_back({std::move(name), now, now, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = radiomc::monotonic_now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(std::string name, std::uint64_t start_ns,
                 std::uint64_t end_ns, int parent) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent});
}

std::vector<std::uint64_t> Tracer::self_ns() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  // Siblings run one after another on one thread, so the covered part of a
  // parent is the plain sum of its children's durations.
  for (const Span& s : spans_)
    if (s.parent >= 0) {
      std::uint64_t& p = self[static_cast<std::size_t>(s.parent)];
      const std::uint64_t d = s.end_ns - s.start_ns;
      p = p > d ? p - d : 0;
    }
  return self;
}

SlotClock::SlotClock(std::uint64_t slots_per_phase,
                     std::vector<radiomc::SlotTime> marks)
    : spp_(slots_per_phase), marks_(std::move(marks)) {}

void SlotClock::on_slot_done(radiomc::SlotTime t) {
  const std::uint64_t now = radiomc::monotonic_now_ns();
  if (last_ns_ != 0) {
    const std::uint64_t d = now - last_ns_;
    slot_ns.add(d);
    timed_ns += d;
    // t slots are done, so the slot just run is t-1.
    if (spp_ > 0 && (t - 1) % spp_ == 0) boundary_ns += d;
  }
  last_ns_ = now;
  if (spp_ > 0 && t % spp_ == 0) {
    if (phase_start_ns_ != 0) phase_ns.add(now - phase_start_ns_);
    phase_start_ns_ = now;
  }
  if (mark_ns.size() < marks_.size() && t == marks_[mark_ns.size()])
    mark_ns.push_back(now);
}

}  // namespace perfbench

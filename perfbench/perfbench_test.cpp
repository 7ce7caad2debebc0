// The benchmark's own tests, on tiny inputs: determinism per seed, input
// variation across seeds, traced == bare, and a broken check must count.

#include <gtest/gtest.h>

#include "tracing.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::RepeatResult;
using perfbench::Size;

RepeatResult run(const std::string& w, std::uint64_t seed,
                 perfbench::Tracer* tracer = nullptr,
                 bool break_check = false) {
  Options opt;
  opt.size = Size::kTiny;
  opt.tracer = tracer;
  opt.break_check = break_check;
  return perfbench::run_workload(w, seed, opt);
}

class Workload : public ::testing::TestWithParam<std::string> {};

TEST_P(Workload, SameSeedGivesIdenticalDigest) {
  const RepeatResult a = run(GetParam(), 7);
  const RepeatResult b = run(GetParam(), 7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.input_digest, b.input_digest);
  EXPECT_GT(a.attempted, 0u);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_GT(a.sim_slots, 0u);
  EXPECT_GT(a.wall_s, 0.0);
}

TEST_P(Workload, DifferentSeedGivesDifferentInputs) {
  EXPECT_NE(run(GetParam(), 7).input_digest, run(GetParam(), 8).input_digest);
}

TEST_P(Workload, TracedAndBareGiveIdenticalDigests) {
  perfbench::Tracer tracer;
  const RepeatResult traced = run(GetParam(), 7, &tracer);
  EXPECT_EQ(traced.digest, run(GetParam(), 7).digest);
  EXPECT_EQ(traced.failed, 0u);
  // Every per-layer metric except the overhead (which needs a bare run
  // beside it) comes out of one traced repeat.
  for (const auto& [name, unit] : perfbench::layer_metrics()) {
    if (name != "trace.overhead_frac") {
      EXPECT_EQ(traced.layer.count(name), 1u) << name;
    }
  }
  ASSERT_FALSE(tracer.spans().empty());
  EXPECT_EQ(tracer.spans()[0].name, "workload");
  EXPECT_GE(traced.layer.at("trace.unattributed_s"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, Workload,
                         ::testing::ValuesIn(perfbench::workload_names()),
                         [](const auto& p) {
                           std::string s = p.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(Checks, BrokenCheckCountsAsFailure) {
  const RepeatResult r = run("bulk-collect", 7, nullptr, /*break_check=*/true);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(static_cast<double>(r.failed) / static_cast<double>(r.attempted),
            0.0);
}

TEST(Tracing, SelfTimeSubtractsChildren) {
  perfbench::Tracer t;
  const int root = t.open("root");
  t.add("child", 100, 160, root);
  t.close(root);
  const auto self = t.self_ns();
  const auto& s = t.spans();
  EXPECT_EQ(self[1], 60u);
  const std::uint64_t total = s[0].end_ns - s[0].start_ns;
  EXPECT_EQ(self[0], total > 60 ? total - 60 : 0);
}

TEST(Tracing, HistogramQuantiles) {
  perfbench::LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v * 100);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.5), 50'000.0, 50'000.0 * 0.05);
  EXPECT_NEAR(h.quantile(0.99), 99'000.0, 99'000.0 * 0.05);
}

}  // namespace

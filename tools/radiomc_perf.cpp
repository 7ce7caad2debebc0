// radiomc_perf — the perf trajectory gate.
//
//   radiomc_perf --against baseline.json current.json
//                [--threshold X] [--json OUT]
//
// Diffs two machine-readable performance documents of the same schema —
// radiomc.perf/v1 run reports (radiomc_sim --perf-out) or radiomc.bench/v1
// tables (BENCH_ENGINE.json from bench_micro) — and exits nonzero when any
// bigger-is-better metric fell below baseline/threshold. CI runs this
// against the committed baseline so an engine slowdown fails the build
// instead of landing silently.
//
// Exit codes: 0 = within threshold, 1 = regression past the threshold,
// 2 = usage error / unreadable or incomparable documents.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "telemetry/json_value.h"
#include "perf/regression.h"
#include "support/util.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: radiomc_perf --against BASELINE.json CURRENT.json\n"
      "                    [--threshold X] [--json OUT]\n"
      "\n"
      "Compares CURRENT against BASELINE (both radiomc.perf/v1 or both\n"
      "radiomc.bench/v1) and exits 1 if any throughput metric regressed\n"
      "by more than a factor of X (default 2.0; must be > 1).\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  std::string json_out;
  radiomc::perf::DiffOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--against") {
      if (i + 1 >= argc) return usage();
      baseline_path = argv[++i];
    } else if (arg == "--threshold") {
      if (i + 1 >= argc) return usage();
      try {
        opt.threshold = radiomc::parse_real(argv[++i], "--threshold");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "radiomc_perf: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--json") {
      if (i + 1 >= argc) return usage();
      json_out = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "radiomc_perf: unknown option %s\n", arg.c_str());
      return usage();
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage();

  const auto baseline = radiomc::telemetry::parse_json_file(baseline_path);
  if (!baseline.ok) {
    std::fprintf(stderr, "radiomc_perf: %s\n", baseline.error.c_str());
    return 2;
  }
  const auto current = radiomc::telemetry::parse_json_file(current_path);
  if (!current.ok) {
    std::fprintf(stderr, "radiomc_perf: %s\n", current.error.c_str());
    return 2;
  }

  const radiomc::perf::DiffReport report =
      radiomc::perf::diff_reports(baseline.value, current.value, opt);

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "radiomc_perf: cannot write %s\n",
                   json_out.c_str());
      return 2;
    }
    out << radiomc::perf::diff_to_json(report, opt) << '\n';
  }

  std::fputs(radiomc::perf::diff_to_text(report, opt).c_str(), stdout);
  if (!report.comparable) return 2;
  return report.any_regression() ? 1 : 0;
}

// radiomc_bench: the repository benchmark.
//
//   radiomc_bench --workload W --seed N --seconds S --trace 0|1
//                 [--spans-out FILE]
//
// Repeats workload W for S seconds (closed loop, one job at a time, at
// least one repeat; repeat r's inputs come from seed N split by r), checks
// every output, and prints each metric by name with its unit. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics (medians over the repeats);
// --trace 1 alternates bare and traced repeats and reports the per-layer
// metrics (medians over the traced repeats), writing every span to FILE.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "support/rng.h"
#include "support/stopwatch.h"
#include "tracing.h"
#include "workloads.h"

namespace {

using perfbench::RepeatResult;

/// Simulated-statistics digests of repeat 0, recorded for the default
/// seed. A change that alters what the simulation does (slot counts,
/// attempts, deliveries) fails here, whatever it does to the clock.
struct Recorded {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr Recorded kRecorded[] = {
    {"cold-start", 1, 0xad6097dc41104d2fULL},
    {"serve-soak", 1, 0x79424903888e58c3ULL},
    {"bulk-collect", 1, 0xfcb15298f2a1a744ULL},
    {"bulk-broadcast", 1, 0xdb65519d5986b4cdULL},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: radiomc_bench --workload W --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\nworkloads:",
               why.c_str());
  for (const std::string& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload " + a.workload);
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename F>
std::vector<double> each(const std::vector<RepeatResult>& rs, F f) {
  std::vector<double> v;
  for (const RepeatResult& r : rs) v.push_back(f(r));
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Inputs of repeat r: a stream split off the run seed. One run thus
/// samples many graphs and setup draws (the Las Vegas setup sometimes needs
/// a second attempt), so its medians do not hinge on a single draw.
std::uint64_t repeat_seed(std::uint64_t seed, std::uint64_t r) {
  return radiomc::Rng(seed).split(r).next();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Spans of every traced repeat as JSON lines, times relative to the
/// repeat's root span.
void write_spans(const std::string& path,
                 const std::vector<perfbench::Tracer>& tracers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (std::size_t r = 0; r < tracers.size(); ++r) {
    const auto& spans = tracers[r].spans();
    const auto self = tracers[r].self_ns();
    const std::uint64_t base = spans.empty() ? 0 : spans[0].start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i)
      out << "{\"repeat\":" << r << ",\"id\":" << i << ",\"name\":\""
          << spans[i].name << "\",\"parent\":" << spans[i].parent
          << ",\"start_ns\":" << spans[i].start_ns - base
          << ",\"end_ns\":" << spans[i].end_ns - base
          << ",\"self_ns\":" << self[i] << "}\n";
  }
}

/// Inclusive and self time per span name, averaged over traced repeats,
/// as a share of the repeat's wall time.
void print_breakdown(const std::vector<perfbench::Tracer>& tracers) {
  std::map<std::string, std::pair<double, double>> by_name;
  double wall = 0.0;
  for (const auto& t : tracers) {
    const auto self = t.self_ns();
    for (std::size_t i = 0; i < t.spans().size(); ++i) {
      const auto& s = t.spans()[i];
      by_name[s.name].first += static_cast<double>(s.end_ns - s.start_ns);
      by_name[s.name].second += static_cast<double>(self[i]);
      if (s.parent < 0) wall += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::printf("span breakdown (mean of %zu traced repeats):\n",
              tracers.size());
  std::printf("  %-28s %12s %12s %8s\n", "span", "incl_s", "self_s", "self%");
  const double n = static_cast<double>(tracers.size());
  for (const auto& [name, t] : by_name)
    std::printf("  %-28s %12.6f %12.6f %7.2f%%\n", name.c_str(),
                t.first / n / 1e9, t.second / n / 1e9,
                100.0 * t.second / wall);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const perfbench::Options bare_opt;

  std::vector<RepeatResult> bare, traced;
  std::vector<perfbench::Tracer> tracers;
  try {
    // Start another repeat only if one more as long as the slowest so far
    // still ends by the deadline, so a run overshoots --seconds only when
    // its single first repeat does.
    const std::uint64_t start = radiomc::monotonic_now_ns();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(std::max(0.0, a.seconds) * 1e9);
    std::uint64_t slowest = 0;
    for (std::uint64_t t0 = start;
         bare.empty() || radiomc::monotonic_now_ns() + slowest <= deadline;) {
      const std::uint64_t seed = repeat_seed(a.seed, bare.size());
      bare.push_back(perfbench::run_workload(a.workload, seed, bare_opt));
      if (a.trace) {
        tracers.emplace_back();
        perfbench::Options opt = bare_opt;
        opt.tracer = &tracers.back();
        traced.push_back(perfbench::run_workload(a.workload, seed, opt));
      }
      const std::uint64_t now = radiomc::monotonic_now_ns();
      slowest = std::max(slowest, now - t0);
      t0 = now;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // A traced repeat must simulate exactly what its bare twin did, and
  // repeat 0 must match the recorded digest where one exists.
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < bare.size(); ++i) {
    attempted += bare[i].attempted;
    failed += bare[i].failed;
    if (i < traced.size()) {
      attempted += traced[i].attempted + 1;
      failed += traced[i].failed;
      if (traced[i].digest != bare[i].digest) ++failed;
    }
  }
  const std::uint64_t digest = bare.front().digest;
  const char* recorded = "none recorded for this seed";
  for (const Recorded& rec : kRecorded)
    if (a.workload == rec.workload && a.seed == rec.seed) {
      recorded = rec.digest == digest ? "matches recorded" : "MISMATCH";
      ++attempted;
      if (rec.digest != digest) ++failed;
    }

  std::vector<Metric> metrics;
  if (!a.trace) {
    const auto sim_rate = [](const RepeatResult& r) {
      return static_cast<double>(r.sim_slots) / (r.setup_s + r.protocol_s);
    };
    metrics = {
        {"wall_s", median(each(bare, [](auto& r) { return r.wall_s; })), "s"},
        {"setup_s", median(each(bare, [](auto& r) { return r.setup_s; })), "s"},
        {"protocol_s",
         median(each(bare, [](auto& r) { return r.protocol_s; })), "s"},
        {"sim_slots_per_s", median(each(bare, sim_rate)), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      double v = 0.0;
      if (name == "trace.overhead_frac") {
        const double b = median(each(bare, [](auto& r) { return r.wall_s; }));
        v = (median(each(traced, [](auto& r) { return r.wall_s; })) - b) / b;
      } else {
        v = median(each(traced, [&](auto& r) { return r.layer.at(name); }));
      }
      metrics.push_back({name, v, unit});
    }
    print_breakdown(tracers);
    if (!a.spans_out.empty()) write_spans(a.spans_out, tracers);
  }

  for (std::size_t i = 0; i < bare.size(); ++i)
    std::printf("  repeat %zu: wall %.4f s, setup %.4f s, protocol %.4f s, "
                "%llu simulated slots\n",
                i, bare[i].wall_s, bare[i].setup_s, bare[i].protocol_s,
                static_cast<unsigned long long>(bare[i].sim_slots));
  std::printf("workload %s, seed %llu: %zu repeats%s\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), bare.size(),
              a.trace ? " bare + as many traced" : "");
  std::printf("  repeat 0: simulated digest %016llx (%s), input digest "
              "%016llx\n",
              static_cast<unsigned long long>(digest), recorded,
              static_cast<unsigned long long>(bare.front().input_digest));
  std::printf("  failed_frac %.6g (%llu of %llu operations failed)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics)
    std::printf("  %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  return 0;
}

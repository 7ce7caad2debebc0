#include "perf/regression.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/json_writer.h"

namespace radiomc::perf {

using telemetry::JsonValue;

namespace {

/// Appends one bigger-is-better comparison; `baseline <= 0` rows carry no
/// signal (an empty or failed baseline measurement) and are skipped.
void compare(std::vector<DiffEntry>* out, const std::string& metric,
             double baseline, double current, double threshold) {
  if (baseline <= 0.0) return;
  DiffEntry e;
  e.metric = metric;
  e.baseline = baseline;
  e.current = current;
  e.ratio = current / baseline;
  e.regressed = current < baseline / threshold;
  out->push_back(std::move(e));
}

// --- radiomc.perf/v1 ------------------------------------------------------

void walk_spans(const JsonValue& baseline_spans,
                const JsonValue& current_spans, const std::string& prefix,
                const DiffOptions& opt, std::vector<DiffEntry>* out) {
  for (const JsonValue& b : baseline_spans.items()) {
    const std::string name = b.at("name").as_string();
    const JsonValue* cur = nullptr;
    for (const JsonValue& c : current_spans.items())
      if (c.at("name").as_string() == name) {
        cur = &c;
        break;
      }
    const std::string path = prefix.empty() ? name : prefix + "/" + name;
    const double b_ns = b.at("total_ns").as_double();
    // A span that vanished is not a regression by itself (instrumentation
    // may move); only present-in-both spans are timed against each other.
    if (cur == nullptr || b_ns <= 0.0) continue;
    const double c_ns = cur->at("total_ns").as_double();
    // total_ns is smaller-is-better; invert into the common orientation.
    compare(out, "span_speed[" + path + "]", 1e9 / b_ns,
            c_ns > 0.0 ? 1e9 / c_ns : 0.0, opt.threshold);
    walk_spans(b.at("children"), cur->at("children"), path, opt, out);
  }
}

DiffReport diff_perf(const JsonValue& b, const JsonValue& c,
                     const DiffOptions& opt) {
  DiffReport r;
  r.comparable = true;
  compare(&r.entries, "slots_per_sec", b.at("slots_per_sec").as_double(),
          c.at("slots_per_sec").as_double(), opt.threshold);
  // wall_ms is smaller-is-better: compare speeds (1/ms).
  const double b_wall = b.at("wall_ms").as_double();
  const double c_wall = c.at("wall_ms").as_double();
  compare(&r.entries, "run_speed[1/wall_ms]", b_wall > 0 ? 1.0 / b_wall : 0.0,
          c_wall > 0 ? 1.0 / c_wall : 0.0, opt.threshold);
  walk_spans(b.at("spans"), c.at("spans"), "", opt, &r.entries);
  return r;
}

// --- radiomc.bench/v1 -----------------------------------------------------

/// Composite row identity: every string member plus the integer "n",
/// rendered "k=v|k=v|..." in member order (writers emit deterministically).
std::string row_key(const JsonValue& row) {
  std::string key;
  for (const auto& [k, v] : row.members()) {
    if (v.is_string()) {
      key += k + "=" + v.as_string() + "|";
    } else if (k == "n" && v.is_number()) {
      key += "n=" + std::to_string(v.as_int()) + "|";
    }
  }
  return key;
}

/// The throughput-like members a bench row may carry, all bigger-better.
const char* const kRateFields[] = {"slots_per_sec", "node_slots_per_sec",
                                   "ops_per_sec"};

DiffReport diff_bench(const JsonValue& b, const JsonValue& c,
                      const DiffOptions& opt) {
  DiffReport r;
  if (b.at("bench").as_string() != c.at("bench").as_string()) {
    r.error = "bench ids differ: '" + b.at("bench").as_string() + "' vs '" +
              c.at("bench").as_string() + "'";
    return r;
  }
  r.comparable = true;
  for (const JsonValue& brow : b.at("rows").items()) {
    const std::string key = row_key(brow);
    const JsonValue* crow = nullptr;
    for (const JsonValue& cand : c.at("rows").items())
      if (row_key(cand) == key) {
        crow = &cand;
        break;
      }
    bool any_rate = false;
    for (const char* field : kRateFields) {
      if (!brow.has(field)) continue;
      any_rate = true;
      const double base = brow.at(field).as_double();
      compare(&r.entries, std::string(field) + "[" + key + "]", base,
              crow != nullptr ? crow->at(field).as_double() : 0.0,
              opt.threshold);
    }
    // Rows without rate fields (paper-claim tables) still gate coverage:
    // losing a baseline row entirely means the trajectory lost a point.
    if (!any_rate && crow == nullptr) {
      DiffEntry e;
      e.metric = "row_present[" + key + "]";
      e.baseline = 1.0;
      e.ratio = 0.0;
      e.regressed = true;
      r.entries.push_back(std::move(e));
    }
  }
  return r;
}

}  // namespace

DiffReport diff_reports(const JsonValue& baseline, const JsonValue& current,
                        const DiffOptions& opt) {
  DiffReport r;
  if (opt.threshold <= 1.0) {
    r.error = "--threshold must be > 1 (a slowdown factor)";
    return r;
  }
  const std::string bs = baseline.at("schema").as_string();
  const std::string cs = current.at("schema").as_string();
  if (bs != cs) {
    r.error = "schema mismatch: baseline '" + bs + "' vs current '" + cs + "'";
    return r;
  }
  if (bs == "radiomc.perf/v1") return diff_perf(baseline, current, opt);
  if (bs == "radiomc.bench/v1") return diff_bench(baseline, current, opt);
  r.error = "unrecognized schema '" + bs +
            "' (expected radiomc.perf/v1 or radiomc.bench/v1)";
  return r;
}

std::string diff_to_text(const DiffReport& r, const DiffOptions& opt) {
  std::string out;
  char line[512];
  if (!r.comparable) {
    out = "not comparable: " + r.error + "\n";
    return out;
  }
  std::size_t regressions = 0;
  for (const DiffEntry& e : r.entries) {
    if (!e.regressed) continue;
    ++regressions;
    std::snprintf(line, sizeof line,
                  "REGRESSION  %-48s  baseline %.6g  current %.6g  "
                  "(x%.3f, allowed >= x%.3f)\n",
                  e.metric.c_str(), e.baseline, e.current, e.ratio,
                  1.0 / opt.threshold);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "%zu metric(s) compared, %zu regression(s) past the x%.2f "
                "threshold\n",
                r.entries.size(), regressions, opt.threshold);
  out += line;
  return out;
}

std::string diff_to_json(const DiffReport& r, const DiffOptions& opt) {
  std::string buf;
  telemetry::JsonWriter w(&buf);
  w.begin_object();
  w.member("schema", "radiomc.perfdiff/v1");
  w.member("comparable", r.comparable);
  if (!r.comparable) w.member("error", r.error);
  w.member("threshold", opt.threshold);
  w.member("regressions",
           static_cast<std::uint64_t>(std::count_if(
               r.entries.begin(), r.entries.end(),
               [](const DiffEntry& e) { return e.regressed; })));
  w.key("entries");
  w.begin_array();
  for (const DiffEntry& e : r.entries) {
    w.begin_object();
    w.member("metric", e.metric);
    w.member("baseline", e.baseline);
    w.member("current", e.current);
    w.member("ratio", e.ratio);
    w.member("regressed", e.regressed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return buf;
}

}  // namespace radiomc::perf

// radiomc_monitor — offline replayer for the live observability streams:
// radiomc.snap/v1 (periodic metrics snapshots, `radiomc_sim
// --snapshot-out`) and radiomc.health/v1 (the online health monitor's
// window facts + SLO alert transitions, `radiomc_sim serve --health-out`).
//
//   radiomc_monitor report FILE [--json OUT]
//   radiomc_monitor check  FILE [--strict] [--json OUT]
//
// `report` prints a human summary of the stream (window counts, every
// alert transition, footer state). `check` verifies the stream's
// structural invariants — a recognized schema line first, a footer last
// (its absence means the producer died mid-run: truncation), the footer's
// self-declared counts matching the body, a clean footer (no dropped
// lines), and, for health streams, zero alert trips — and with --strict
// exits 1 when any fails. This is how CI turns a soak's health stream
// into a gate.
//
// Exit codes: 0 ok; 1 check failure (only with --strict); 2 unreadable or
// malformed stream / bad usage.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "telemetry/json_value.h"

using radiomc::telemetry::JsonValue;
using radiomc::telemetry::parse_json;

namespace {

int usage() {
  std::fprintf(stderr,
               "radiomc_monitor <subcommand> FILE [options]\n"
               "\n"
               "subcommands:\n"
               "  report FILE [--json OUT]           stream summary: "
               "windows, alerts, footer\n"
               "  check  FILE [--strict] [--json OUT]\n"
               "                                     structural checks; "
               "--strict exits 1 on failure\n");
  return 2;
}

struct Cli {
  std::string sub;
  std::string file;
  bool strict = false;
  std::string json_out;
};

bool parse_cli(int argc, char** argv, Cli* cli) {
  if (argc < 3) return false;
  cli->sub = argv[1];
  cli->file = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      cli->strict = true;
    } else if (arg == "--json" && i + 1 < argc) {
      cli->json_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

struct Alert {
  std::string rule;
  bool trip = false;
  std::uint64_t window = 0;
  std::uint64_t phase = 0;
  double value = 0.0;
  double limit = 0.0;
  std::string detail;
};

/// Everything the checks need from one pass over the stream.
struct Stream {
  std::string schema;  ///< "radiomc.snap/v1" or "radiomc.health/v1"
  // Header facts.
  std::uint64_t every_slots = 0;   // snap
  std::uint64_t window_phases = 0; // health
  std::uint64_t warmup_phases = 0; // health
  std::string rules;               // health
  // Body tallies.
  std::uint64_t snaps = 0;
  std::uint64_t windows = 0;
  std::uint64_t last_slot = 0;
  std::uint64_t last_phase = 0;
  std::vector<Alert> alerts;
  std::uint64_t trips = 0;
  std::uint64_t clears = 0;
  // Footer.
  bool has_end = false;
  bool clean = true;
  std::uint64_t dropped = 0;
  std::uint64_t end_snapshots = 0;
  std::uint64_t end_windows = 0;
  std::uint64_t end_trips = 0;
  std::uint64_t end_clears = 0;
  std::uint64_t end_active = 0;
  std::uint64_t end_slot = 0;
  std::uint64_t end_phase = 0;
};

/// Parses the whole stream; returns false (with a message on stderr) on a
/// malformed line, an unrecognized schema, or events after the footer.
bool read_stream(const std::string& path, Stream* s) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  std::string line;
  std::uint64_t line_no = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "%s:%llu: %s\n", path.c_str(),
                 static_cast<unsigned long long>(line_no), msg.c_str());
    return false;
  };
  // Counts go through the checked unsigned read: absent reads as 0, but a
  // present value must be a non-negative integer; the first bad field of
  // a line is reported.
  std::string bad_field;
  auto count = [&](const JsonValue& v, const char* key) -> std::uint64_t {
    const JsonValue* f = v.find(key);
    if (f == nullptr) return 0;
    if (const auto u = f->as_uint()) return *u;
    if (bad_field.empty()) bad_field = key;
    return 0;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto parsed = parse_json(line);
    if (!parsed.ok) return fail("bad JSON: " + parsed.error);
    const JsonValue& v = parsed.value;
    const std::string ev = v.at("ev").as_string();
    if (line_no == 1) {
      if (ev != "schema") return fail("first line must be the schema record");
      s->schema = v.at("v").as_string();
      if (s->schema != "radiomc.snap/v1" &&
          s->schema != "radiomc.health/v1")
        return fail("unrecognized stream schema '" + s->schema + "'");
      s->every_slots = count(v, "every");
      s->window_phases = count(v, "window");
      s->warmup_phases = count(v, "warmup");
      s->rules = v.at("rules").as_string();
    } else if (s->has_end) {
      return fail("event after the end footer");
    } else if (ev == "snap") {
      ++s->snaps;
      s->last_slot = count(v, "slot");
    } else if (ev == "window") {
      ++s->windows;
      s->last_phase = count(v, "phase");
    } else if (ev == "alert") {
      Alert a;
      a.rule = v.at("rule").as_string();
      a.trip = v.at("state").as_string() == "trip";
      a.window = count(v, "n");
      a.phase = count(v, "phase");
      a.value = v.at("value").as_double();
      a.limit = v.at("limit").as_double();
      a.detail = v.at("detail").as_string();
      if (a.trip)
        ++s->trips;
      else
        ++s->clears;
      s->alerts.push_back(a);
    } else if (ev == "end") {
      s->has_end = true;
      s->clean = v.has("clean") ? v.at("clean").as_bool(true) : true;
      s->dropped = count(v, "dropped");
      s->end_snapshots = count(v, "snapshots");
      s->end_windows = count(v, "windows");
      s->end_trips = count(v, "trips");
      s->end_clears = count(v, "clears");
      s->end_active = count(v, "active");
      s->end_slot = count(v, "slot");
      s->end_phase = count(v, "phase");
    } else if (ev == "schema") {
      return fail("duplicate schema record");
    } else {
      return fail("unknown event '" + ev + "'");
    }
    if (!bad_field.empty())
      return fail("field \"" + bad_field +
                  "\" is not a non-negative integer");
  }
  if (line_no == 0) {
    std::fprintf(stderr, "%s: empty stream\n", path.c_str());
    return false;
  }
  return true;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

std::vector<Check> run_checks(const Stream& s) {
  std::vector<Check> checks;
  auto add = [&](const std::string& name, bool ok, std::string detail) {
    checks.push_back({name, ok, std::move(detail)});
  };
  add("footer-present", s.has_end,
      s.has_end ? "end record found"
                : "no end record: the stream is truncated");
  if (s.has_end) {
    add("footer-clean", s.clean,
        s.clean ? "no dropped lines"
                : "producer dropped " + std::to_string(s.dropped) +
                      " line(s) on a bad stream");
    if (s.schema == "radiomc.snap/v1") {
      add("snapshot-count", s.snaps == s.end_snapshots,
          "stream has " + std::to_string(s.snaps) + ", footer declares " +
              std::to_string(s.end_snapshots));
      add("slot-monotone", s.end_slot >= s.last_slot,
          "footer slot " + std::to_string(s.end_slot) + ", last snapshot " +
              std::to_string(s.last_slot));
    } else {
      add("window-count", s.windows == s.end_windows,
          "stream has " + std::to_string(s.windows) +
              ", footer declares " + std::to_string(s.end_windows));
      add("alert-count",
          s.trips == s.end_trips && s.clears == s.end_clears,
          "stream has " + std::to_string(s.trips) + " trips / " +
              std::to_string(s.clears) + " clears, footer declares " +
              std::to_string(s.end_trips) + " / " +
              std::to_string(s.end_clears));
      add("active-consistent", s.end_active == s.end_trips - s.end_clears,
          "active " + std::to_string(s.end_active) + " vs trips-clears " +
              std::to_string(s.end_trips - s.end_clears));
    }
  }
  if (s.schema == "radiomc.health/v1")
    add("no-alerts", s.trips == 0,
        s.trips == 0 ? "zero rule trips"
                     : std::to_string(s.trips) + " rule trip(s), " +
                           std::to_string(s.has_end ? s.end_active : 0) +
                           " still active at end");
  return checks;
}

void print_summary(const Stream& s) {
  std::printf("stream: %s\n", s.schema.c_str());
  if (s.schema == "radiomc.snap/v1") {
    std::printf("snapshots: %llu (every %llu slots), last slot %llu\n",
                static_cast<unsigned long long>(s.snaps),
                static_cast<unsigned long long>(s.every_slots),
                static_cast<unsigned long long>(s.last_slot));
  } else {
    std::printf(
        "windows: %llu (every %llu phases, warmup %llu), last phase %llu\n",
        static_cast<unsigned long long>(s.windows),
        static_cast<unsigned long long>(s.window_phases),
        static_cast<unsigned long long>(s.warmup_phases),
        static_cast<unsigned long long>(s.last_phase));
    std::printf("rules: %s\n", s.rules.c_str());
    std::printf("alerts: %llu trips, %llu clears\n",
                static_cast<unsigned long long>(s.trips),
                static_cast<unsigned long long>(s.clears));
    for (const Alert& a : s.alerts)
      std::printf("  %-5s %-10s n=%llu phase=%llu value=%g limit=%g%s%s\n",
                  a.trip ? "trip" : "clear", a.rule.c_str(),
                  static_cast<unsigned long long>(a.window),
                  static_cast<unsigned long long>(a.phase), a.value,
                  a.limit, a.detail.empty() ? "" : "  ",
                  a.detail.c_str());
  }
  if (!s.has_end) {
    std::printf("footer: MISSING (truncated stream)\n");
  } else if (!s.clean) {
    std::printf("footer: dirty (%llu dropped line(s))\n",
                static_cast<unsigned long long>(s.dropped));
  } else {
    std::printf("footer: clean\n");
  }
}

bool write_json_report(const std::string& path, const Stream& s,
                       const std::vector<Check>& checks, bool pass) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  // Hand-assembled like the stream itself: tiny, flat, deterministic.
  out << "{\"schema\":\"radiomc.monitor.report/v1\",\"stream\":\""
      << s.schema << "\",\"pass\":" << (pass ? "true" : "false")
      << ",\"truncated\":" << (s.has_end ? "false" : "true")
      << ",\"clean\":" << (s.clean ? "true" : "false")
      << ",\"trips\":" << s.trips << ",\"clears\":" << s.clears
      << ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"name\":\"" << checks[i].name
        << "\",\"ok\":" << (checks[i].ok ? "true" : "false") << "}";
  }
  out << "]}\n";
  return out.good();
}

int cmd_report(const Cli& cli, const Stream& s) {
  print_summary(s);
  if (!cli.json_out.empty()) {
    const auto checks = run_checks(s);
    bool pass = true;
    for (const Check& c : checks) pass = pass && c.ok;
    if (!write_json_report(cli.json_out, s, checks, pass)) {
      std::fprintf(stderr, "cannot write report file %s\n",
                   cli.json_out.c_str());
      return 2;
    }
    std::printf("report: %s\n", cli.json_out.c_str());
  }
  return 0;
}

int cmd_check(const Cli& cli, const Stream& s) {
  const auto checks = run_checks(s);
  bool pass = true;
  for (const Check& c : checks) {
    std::printf("%-6s %-18s %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
    pass = pass && c.ok;
  }
  std::printf("%s\n", pass ? "CHECK PASS" : "CHECK FAIL");
  if (!cli.json_out.empty() &&
      !write_json_report(cli.json_out, s, checks, pass)) {
    std::fprintf(stderr, "cannot write report file %s\n",
                 cli.json_out.c_str());
    return 2;
  }
  if (!pass && cli.strict) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) return usage();
  Stream s;
  if (!read_stream(cli.file, &s)) return 2;
  if (cli.sub == "report") return cmd_report(cli, s);
  if (cli.sub == "check") return cmd_check(cli, s);
  return usage();
}

#pragma once

// Shared experiment-harness helpers: fixed-width table printing (every
// bench prints paper-claim vs measured columns), seed-averaged runs, a
// machine-readable result emitter (BENCH_<id>.json) so sweeps can be
// plotted or regression-tracked without scraping stdout, and the --jobs
// knob that shards trial loops across the deterministic parallel runner
// (support/parallel.h).
//
// Table and JsonEmitter buffer their rows instead of streaming them, so a
// trial can build its own private instance and the driver can `merge` the
// pieces back in trial order — output is then independent of how many
// threads ran the trials.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/parallel.h"
#include "support/stats.h"
#include "support/util.h"
#include "telemetry/json_writer.h"

namespace radiomc::bench {

/// Harness options shared by every bench binary.
struct Options {
  /// Trial-loop job count: --jobs N (0 = all hardware threads), else the
  /// RADIOMC_JOBS environment variable, else 1.
  unsigned jobs = 1;
};

/// Parses a bench flag's value with a checked parser (support/util.h); a
/// malformed value ends the run with exit code 2 and the parser's message.
template <typename Parse>
auto checked_flag(Parse&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

inline Options parse_options(int argc, char** argv) {
  Options o;
  o.jobs = checked_flag([] { return jobs_from_env(); });
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      const auto v = checked_flag([text] {
        return parse_unsigned(text, "--jobs",
                              std::numeric_limits<unsigned>::max());
      });
      o.jobs = v == 0 ? hardware_jobs() : static_cast<unsigned>(v);
    }
  }
  return o;
}

/// Prints "== E4: ... ==" style experiment headers.
inline void header(const std::string& id, const std::string& claim) {
  std::printf("\n== %s ==\n   claim: %s\n", id.c_str(), claim.c_str());
}

/// Buffered fixed-width table. `row()` only records; `print()` emits the
/// header, rule and rows in recording order. Per-trial tables merge into
/// the driver's table with `merge()`.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 17)
      : cols_(std::move(columns)), width_(width) {}

  void row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Appends `other`'s rows (column layout is the caller's contract).
  void merge(const Table& other) {
    rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  }

  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

  void print() const {
    for (const auto& c : cols_) std::printf("%*s", width_, c.c_str());
    std::printf("\n");
    // Rule sized from the configured column width (one leading space of
    // padding kept, like the header cells).
    const std::string rule(width_ > 1 ? width_ - 1 : 1, '-');
    for (std::size_t i = 0; i < cols_.size(); ++i)
      std::printf("%*s", width_, rule.c_str());
    std::printf("\n");
    for (const auto& r : rows_) {
      for (const auto& c : r) std::printf("%*s", width_, c.c_str());
      std::printf("\n");
    }
  }

 private:
  std::vector<std::string> cols_;
  int width_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string num(double v, int precision = 1) {
  return fmt(v, precision);
}
inline std::string num(std::uint64_t v) { return std::to_string(v); }

/// Averages `f(seed)` over `seeds` runs, sharding across `jobs` threads.
/// Deterministic in the jobs count: per-seed values are computed
/// independently and folded in seed order.
template <typename F>
OnlineStats mean_over_seeds(int seeds, std::uint64_t base, F&& f,
                            unsigned jobs = 1) {
  const auto vals = run_indexed(
      static_cast<std::uint64_t>(seeds < 0 ? 0 : seeds), jobs,
      [&](std::uint64_t i) { return static_cast<double>(f(base + i)); });
  OnlineStats s;
  for (double v : vals) s.add(v);
  return s;
}

inline void verdict(bool pass, const std::string& what) {
  std::printf("   [%s] %s\n", pass ? "SHAPE OK" : "MISMATCH", what.c_str());
}

/// One typed cell of a machine-readable result row. The constructors cover
/// the types benches actually record; `{"k", k}` and `{"ratio", r}` both
/// work in a braced row without casts.
struct JsonField {
  enum class Kind { kString, kDouble, kUint, kInt, kBool };
  std::string key;
  Kind kind;
  std::string s;
  double d = 0;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  bool b = false;

  JsonField(std::string k, const char* v)
      : key(std::move(k)), kind(Kind::kString), s(v) {}
  JsonField(std::string k, std::string v)
      : key(std::move(k)), kind(Kind::kString), s(std::move(v)) {}
  JsonField(std::string k, double v)
      : key(std::move(k)), kind(Kind::kDouble), d(v) {}
  JsonField(std::string k, std::uint64_t v)
      : key(std::move(k)), kind(Kind::kUint), u(v) {}
  JsonField(std::string k, std::uint32_t v)
      : key(std::move(k)), kind(Kind::kUint), u(v) {}
  JsonField(std::string k, std::int64_t v)
      : key(std::move(k)), kind(Kind::kInt), i(v) {}
  JsonField(std::string k, int v)
      : key(std::move(k)), kind(Kind::kInt), i(v) {}
  JsonField(std::string k, bool v)
      : key(std::move(k)), kind(Kind::kBool), b(v) {}
};

/// Collects experiment rows and writes `BENCH_<id>.json`:
///   {"schema":"radiomc.bench/v1","bench":"E4","claim":"...",
///    "rows":[{...},...],"pass":true,"run":{"jobs":..,"wall_ms":..,...}}
///
/// Rows are buffered, so trials may build private emitters that the
/// driver folds back with `merge()` in trial order; only the driver's
/// emitter writes a file. Everything before the trailing "run" member is
/// a pure function of the seed — `--jobs 8` and `--jobs 1` produce
/// byte-identical documents up to that member (which records the job
/// count and wall/CPU time and is expected to differ).
///
/// The file lands in $RADIOMC_BENCH_JSON_DIR (default: the working
/// directory); `write()` — also called by the destructor — closes the
/// document and reports the path on stdout.
class JsonEmitter {
 public:
  JsonEmitter(const std::string& id, const std::string& claim)
      : id_(id), claim_(claim) {}
  ~JsonEmitter() { write(); }
  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;
  JsonEmitter(JsonEmitter&&) = default;

  void row(std::initializer_list<JsonField> fields) {
    std::string buf;
    telemetry::JsonWriter w(&buf);
    w.begin_object();
    for (const JsonField& f : fields) {
      switch (f.kind) {
        case JsonField::Kind::kString: w.member(f.key, f.s); break;
        case JsonField::Kind::kDouble: w.member(f.key, f.d); break;
        case JsonField::Kind::kUint: w.member(f.key, f.u); break;
        case JsonField::Kind::kInt: w.member(f.key, f.i); break;
        case JsonField::Kind::kBool: w.member(f.key, f.b); break;
      }
    }
    w.end_object();
    rows_.push_back(std::move(buf));
  }

  /// Appends `other`'s rows and ANDs its pass flag; `other` is consumed
  /// (its destructor will no longer write a file).
  void merge(JsonEmitter&& other) {
    for (auto& r : other.rows_) rows_.push_back(std::move(r));
    pass_ = pass_ && other.pass_;
    other.written_ = true;
  }

  /// Records the bench's overall SHAPE OK / MISMATCH flag.
  void pass(bool ok) { pass_ = ok; }

  /// Records the run metadata appended after the statistics: the job
  /// count the trial loops actually used plus wall/CPU time.
  void set_run_info(unsigned jobs, double wall_ms, double cpu_ms) {
    has_run_info_ = true;
    run_jobs_ = jobs;
    run_wall_ms_ = wall_ms;
    run_cpu_ms_ = cpu_ms;
  }

  /// The full document (exposed for the reproducibility tests).
  std::string document() const {
    std::string buf;
    telemetry::JsonWriter w(&buf);
    w.begin_object();
    w.member("schema", "radiomc.bench/v1");
    w.member("bench", id_);
    w.member("claim", claim_);
    w.key("rows");
    // Rows were serialized by their own writers; splice the fragments in.
    buf += '[';
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i) buf += ',';
      buf += rows_[i];
    }
    buf += ']';
    w.member("pass", pass_);
    if (has_run_info_) {
      w.key("run");
      w.begin_object();
      w.member("jobs", static_cast<std::uint64_t>(run_jobs_));
      w.member("wall_ms", run_wall_ms_);
      w.member("cpu_ms", run_cpu_ms_);
      w.end_object();
    }
    w.end_object();
    return buf;
  }

  /// Finalizes and writes the file; idempotent.
  void write() {
    if (written_) return;
    written_ = true;
    std::string dir = ".";
    if (const char* env = std::getenv("RADIOMC_BENCH_JSON_DIR"))
      if (*env != '\0') dir = env;
    const std::string path = dir + "/BENCH_" + id_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    out << document() << '\n';
    if (out.good())
      std::printf("   json: %s\n", path.c_str());
    else
      std::fprintf(stderr, "   json: FAILED to write %s\n", path.c_str());
  }

 private:
  std::string id_;
  std::string claim_;
  std::vector<std::string> rows_;
  bool pass_ = true;
  bool written_ = false;
  bool has_run_info_ = false;
  unsigned run_jobs_ = 1;
  double run_wall_ms_ = 0.0;
  double run_cpu_ms_ = 0.0;
};

}  // namespace radiomc::bench

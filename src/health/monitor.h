#pragma once

// The online health monitor: composes a FlightRecorder (engine-side facts
// via the TraceSink hook) with a RuleEngine (SLO alert rules over rolling
// windows) and streams `radiomc.health/v1` JSONL.
//
// Stream layout:
//   {"ev":"schema","v":"radiomc.health/v1","window":W,"warmup":U,
//    "lambda":l,"mu":m,"depth":D,"rules":"..."}             first line
//   {"ev":"window","n":i,"phase":p,"arrivals":a,"delivered":d,
//    "in_system":q,"mean_sojourn":s,"tx":t,"collisions":c,"jams":j,
//    "polls":k,"wakes":w}                                   per window
//   {"ev":"alert","rule":"...","state":"trip"|"clear","n":i,"phase":p,
//    "value":v,"limit":L[,"detail":"..."]}                  transitions
//   {"ev":"end","phase":p,"windows":n,"trips":t,"clears":c,"active":a,
//    "clean":true}                                          footer
//
// Every line is a pure function of (seed, config): window facts come from
// the deterministic event stream and the service's deterministic phase
// sample (engine polls and wake events are active-set scheduling facts,
// reproducible by the Waker contract), and no wall-clock value is ever
// written — so the stream is byte-identical across `--jobs`, golden-
// testable, and diffable between runs. The footer mirrors the snap/v1
// end record: its absence means truncation, `"clean":false` means lines
// were dropped on a bad stream mid-run.
//
// Rules only evaluate for windows that start at or after `warmup_phases`:
// the pipeline-fill transient would otherwise trip the throughput floor
// on every cold start (certification excludes warmup for the same
// reason). Window facts are still recorded from phase zero.

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "health/recorder.h"
#include "health/rules.h"

namespace radiomc::health {

inline constexpr const char* kHealthSchemaVersion = "radiomc.health/v1";

struct HealthConfig {
  /// Rolling-window length in collection phases.
  std::uint64_t window_phases = 64;
  /// Alert-rule spec (see rules.h); parsed at construction, throws
  /// std::invalid_argument on malformed input.
  std::string rules = "default";
  /// Offered load lambda in messages/phase (the throughput/qgrowth
  /// reference). <= 0 disables the rules that need it.
  double offered_rate = 0.0;
  /// Per-level service rate; <= 0 means Thm 4.1's mu = e^-1(1-e^-1).
  double mu = 0.0;
  /// BFS depth D for the Thm 4.15 sojourn envelope D(1-l)/(mu-l).
  std::uint32_t depth = 0;
  /// Rules idle until the first window that starts at/after this phase.
  std::uint64_t warmup_phases = 0;
};

/// One completed service phase, sampled by run_service. All counters are
/// cumulative since phase zero; the monitor forms window deltas itself.
struct PhaseSample {
  std::uint64_t phase = 0;      ///< completed phase index, 0-based
  std::uint64_t arrivals = 0;
  std::uint64_t delivered = 0;
  double sojourn_sum = 0.0;     ///< summed sojourns of all deliveries
  std::uint64_t in_system = 0;  ///< end-of-phase in-network population
  std::uint64_t engine_polls = 0;
  std::uint64_t wake_events = 0;
};

class Monitor {
 public:
  /// Streams to `out` (borrowed; must outlive the monitor). `levels[v]` is
  /// node v's BFS level, for the per-level collision tally.
  Monitor(std::vector<std::uint32_t> levels, const HealthConfig& cfg,
          std::ostream& out);
  /// Opens `path` for writing and owns the stream. Check `ok()`.
  Monitor(std::vector<std::uint32_t> levels, const HealthConfig& cfg,
          const std::string& path);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  bool ok() const noexcept { return out_ != nullptr && out_->good(); }

  /// The engine hook to install via RadioNetwork::set_trace.
  TraceSink* sink() noexcept { return &recorder_; }
  const FlightRecorder& recorder() const noexcept { return recorder_; }

  /// Feed every completed phase in order; closes a window (facts line,
  /// rule evaluation, transitions) every `window_phases` phases.
  void on_phase(const PhaseSample& s);

  /// Writes the footer; idempotent (also run by the destructor).
  void finish();

  std::uint64_t windows() const noexcept { return windows_; }
  std::uint64_t trips() const noexcept { return engine_.trips(); }
  std::uint64_t clears() const noexcept { return engine_.clears(); }
  std::uint64_t active() const noexcept { return engine_.active(); }

  /// The serve CLI flag-pairing contract, shared with radiomc_sim so the
  /// error-path tests and the tool reject identically (same convention as
  /// SnapshotStreamer::validate_flags). Throws std::invalid_argument.
  static void validate_flags(bool has_out, bool has_rules, bool has_window,
                             std::uint64_t window_phases);

 private:
  void init();
  void write_line(const std::string& line);
  void close_window(const PhaseSample& s);

  FlightRecorder recorder_;
  RuleEngine engine_;
  HealthConfig cfg_;
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  PhaseSample window_base_;  ///< cumulative sample at the last window close
  PhaseSample eval_base_;    ///< cumulative sample when rules went live
  std::uint64_t eval_start_phase_ = 0;
  bool have_eval_base_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t last_phase_ = 0;
  std::uint64_t dropped_ = 0;
  bool saw_phase_ = false;
  bool finished_ = false;
};

}  // namespace radiomc::health

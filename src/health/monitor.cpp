#include "health/monitor.h"

#include <cmath>
#include <stdexcept>

#include "queueing/analysis.h"
#include "telemetry/json_writer.h"

namespace radiomc::health {

Monitor::Monitor(std::vector<std::uint32_t> levels, const HealthConfig& cfg,
                 std::ostream& out)
    : recorder_(std::move(levels)),
      engine_(RuleSet::parse(cfg.rules)),
      cfg_(cfg),
      out_(&out) {
  init();
}

Monitor::Monitor(std::vector<std::uint32_t> levels, const HealthConfig& cfg,
                 const std::string& path)
    : recorder_(std::move(levels)),
      engine_(RuleSet::parse(cfg.rules)),
      cfg_(cfg),
      owned_(std::make_unique<std::ofstream>(path)),
      out_(owned_.get()) {
  if (!owned_->is_open()) out_ = nullptr;
  init();
}

void Monitor::init() {
  if (cfg_.window_phases == 0)
    throw std::invalid_argument(
        "health: window must be a positive phase count");
  if (cfg_.mu <= 0.0) cfg_.mu = queueing::mu_decay();
  std::string buf;
  telemetry::JsonWriter w(&buf);
  w.begin_object();
  w.member("ev", "schema");
  w.member("v", kHealthSchemaVersion);
  w.member("window", cfg_.window_phases);
  w.member("warmup", cfg_.warmup_phases);
  w.member("lambda", cfg_.offered_rate);
  w.member("mu", cfg_.mu);
  w.member("depth", static_cast<std::uint64_t>(cfg_.depth));
  w.member("rules", engine_.rules().canonical());
  w.end_object();
  write_line(buf);
}

Monitor::~Monitor() { finish(); }

void Monitor::write_line(const std::string& line) {
  if (!ok()) {
    ++dropped_;
    return;
  }
  *out_ << line << '\n';
  out_->flush();  // readable while the soak is live, like snap/v1
}

void Monitor::on_phase(const PhaseSample& s) {
  if (finished_) return;
  last_phase_ = s.phase;
  saw_phase_ = true;
  if ((s.phase + 1) % cfg_.window_phases != 0) return;
  close_window(s);
}

void Monitor::close_window(const PhaseSample& s) {
  WindowStats ws;
  ws.window = windows_;
  ws.phase_end = s.phase;
  ws.phases = cfg_.window_phases;
  ws.offered_rate = cfg_.offered_rate;
  ws.envelope_phases =
      (cfg_.offered_rate > 0.0 && cfg_.offered_rate < cfg_.mu)
          ? static_cast<double>(cfg_.depth) *
                queueing::mean_wait(cfg_.offered_rate, cfg_.mu)
          : std::nan("");
  ws.arrivals = s.arrivals - window_base_.arrivals;
  ws.delivered = s.delivered - window_base_.delivered;
  ws.mean_sojourn =
      ws.delivered > 0
          ? (s.sojourn_sum - window_base_.sojourn_sum) /
                static_cast<double>(ws.delivered)
          : std::nan("");
  ws.in_system_begin = window_base_.in_system;
  ws.in_system_end = s.in_system;

  {
    std::string buf;
    telemetry::JsonWriter w(&buf);
    w.begin_object();
    w.member("ev", "window");
    w.member("n", windows_);
    w.member("phase", s.phase);
    w.member("arrivals", ws.arrivals);
    w.member("delivered", ws.delivered);
    w.member("in_system", s.in_system);
    w.member("mean_sojourn", ws.mean_sojourn);  // null when no delivery
    w.member("tx", recorder_.window_transmissions());
    w.member("collisions", recorder_.window_collisions());
    w.member("jams", recorder_.window_jams());
    w.member("polls", s.engine_polls - window_base_.engine_polls);
    w.member("wakes", s.wake_events - window_base_.wake_events);
    w.end_object();
    write_line(buf);
  }

  // Rules idle during warmup: the first evaluated window is the first one
  // wholly inside the measured horizon.
  const std::uint64_t window_start = s.phase + 1 - cfg_.window_phases;
  if (window_start >= cfg_.warmup_phases) {
    if (!have_eval_base_) {
      have_eval_base_ = true;
      eval_base_ = window_base_;
      eval_start_phase_ = window_start;
    }
    ws.eval_phases = s.phase + 1 - eval_start_phase_;
    ws.eval_delivered = s.delivered - eval_base_.delivered;
    for (const Transition& tr : engine_.evaluate(ws, recorder_)) {
      std::string buf;
      telemetry::JsonWriter w(&buf);
      w.begin_object();
      w.member("ev", "alert");
      w.member("rule", rule_name(tr.rule));
      w.member("state", tr.trip ? "trip" : "clear");
      w.member("n", windows_);
      w.member("phase", s.phase);
      w.member("value", tr.value);
      w.member("limit", tr.threshold);
      if (!tr.detail.empty()) w.member("detail", tr.detail);
      w.end_object();
      write_line(buf);
    }
  }

  recorder_.roll_window();
  window_base_ = s;
  ++windows_;
}

void Monitor::finish() {
  if (finished_) return;
  finished_ = true;
  std::string buf;
  telemetry::JsonWriter w(&buf);
  w.begin_object();
  w.member("ev", "end");
  w.member("phase", saw_phase_ ? last_phase_ : 0);
  w.member("windows", windows_);
  w.member("trips", engine_.trips());
  w.member("clears", engine_.clears());
  w.member("active", engine_.active());
  w.member("clean", dropped_ == 0);
  if (dropped_ > 0) w.member("dropped", dropped_);
  w.end_object();
  if (ok()) {
    *out_ << buf << '\n';
    out_->flush();
  }
}

void Monitor::validate_flags(bool has_out, bool has_rules, bool has_window,
                             std::uint64_t window_phases) {
  if (has_rules && !has_out)
    throw std::invalid_argument(
        "--alert-rules requires --health-out (nowhere to stream alerts)");
  if (has_window && !has_out)
    throw std::invalid_argument(
        "--health-window requires --health-out (no stream to pace)");
  if (has_window && window_phases == 0)
    throw std::invalid_argument(
        "--health-window must be a positive phase count");
}

}  // namespace radiomc::health

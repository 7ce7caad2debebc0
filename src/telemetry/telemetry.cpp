#include "telemetry/telemetry.h"

#include <cstdio>

#include "telemetry/json_writer.h"

namespace radiomc::telemetry {

void Telemetry::merge(const Telemetry& other, std::int64_t trial) {
  metrics.merge(other.metrics);
  if (trial < 0) {
    timeline.merge(other.timeline);
    return;
  }
  for (PhaseSpan span : other.timeline.spans()) {
    span.attrs.emplace_back("trial", trial);
    timeline.record(std::move(span));
  }
}

std::string Telemetry::to_json() const {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.member("schema", "radiomc.telemetry/v1");
  w.key("metrics");
  metrics.write_json(w);
  w.key("phases");
  timeline.write_json(w);
  w.end_object();
  return out;
}

bool Telemetry::write_json_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

void publish_net_metrics(const NetMetrics& m, MetricsRegistry& reg,
                         const std::string& protocol) {
  const Labels labels = {{"protocol", protocol}};
  reg.counter("engine.slots", labels).inc(m.slots);
  reg.counter("engine.transmissions", labels).inc(m.transmissions);
  reg.counter("engine.deliveries", labels).inc(m.deliveries);
  reg.counter("engine.collisions", labels).inc(m.collision_events);
  reg.counter("engine.capture_deliveries", labels).inc(m.capture_deliveries);
}

void publish_fault_metrics(const FaultSchedule& faults, const NetMetrics& m,
                           MetricsRegistry& reg, const std::string& protocol) {
  if (!faults.enabled()) return;
  const auto kind_counter = [&](const char* kind) -> Counter& {
    return reg.counter("faults.events",
                       {{"kind", kind}, {"protocol", protocol}});
  };
  const FaultSchedule::Stats& s = faults.stats();
  if (s.crashes > 0) kind_counter("crash").inc(s.crashes);
  if (s.recoveries > 0) kind_counter("recover").inc(s.recoveries);
  if (s.link_downs > 0) kind_counter("link_down").inc(s.link_downs);
  if (s.link_ups > 0) kind_counter("link_up").inc(s.link_ups);
  const Labels labels = {{"protocol", protocol}};
  if (m.fault_jams > 0) reg.counter("engine.fault_jams", labels).inc(m.fault_jams);
  if (m.fault_drops > 0)
    reg.counter("engine.fault_drops", labels).inc(m.fault_drops);
  if (m.fault_link_blocked > 0)
    reg.counter("engine.fault_link_blocked", labels).inc(m.fault_link_blocked);
  if (m.fault_crashed_slots > 0)
    reg.counter("engine.fault_crashed_slots", labels)
        .inc(m.fault_crashed_slots);
}

void publish_fault_run(Telemetry& tel, const FaultSchedule& faults,
                       const NetMetrics& m, const std::string& protocol,
                       SlotTime slots, RunStatus status) {
  if (!faults.enabled()) return;
  publish_fault_metrics(faults, m, tel.metrics, protocol);
  const FaultSchedule::Stats& s = faults.stats();
  tel.timeline.record(
      {"faults", protocol, 0, slots,
       {{"crashes", static_cast<std::int64_t>(s.crashes)},
        {"recoveries", static_cast<std::int64_t>(s.recoveries)},
        {"link_downs", static_cast<std::int64_t>(s.link_downs)},
        {"jams", static_cast<std::int64_t>(m.fault_jams)},
        {"drops", static_cast<std::int64_t>(m.fault_drops)},
        {"degraded", status == RunStatus::kDegraded ? 1 : 0}}});
}

}  // namespace radiomc::telemetry

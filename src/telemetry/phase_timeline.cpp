#include "telemetry/phase_timeline.h"

#include "telemetry/json_writer.h"

namespace radiomc::telemetry {

void PhaseTimeline::write_json(JsonWriter& w) const {
  w.begin_array();
  for (const PhaseSpan& s : spans_) {
    w.begin_object();
    w.member("protocol", std::string_view(s.protocol));
    w.member("name", std::string_view(s.name));
    w.member("begin", s.begin);
    w.member("end", s.end);
    w.key("attrs");
    w.begin_object();
    for (const auto& [k, v] : s.attrs) w.member(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

}  // namespace radiomc::telemetry

#include "perf/profiler.h"

#include "telemetry/telemetry.h"

namespace radiomc::perf {

SpanNode* SpanNode::child(std::string_view child_name) {
  // Linear scan: span trees are a handful of distinct names per level
  // (taxonomy, not data), and first-open order is the natural report
  // order — a map would sort alphabetically and cost an allocation per
  // lookup for the key.
  for (const auto& c : children)
    if (c->name == child_name) return c.get();
  children.push_back(std::make_unique<SpanNode>());
  children.back()->name = std::string(child_name);
  return children.back().get();
}

Profiler::Profiler()
    : root_(std::make_unique<SpanNode>()), cpu0_ns_(process_cpu_ns()) {
  root_->name = "run";
  root_->count = 1;
  stack_.push_back({root_.get(), 0});
}

void Profiler::begin(std::string_view name) {
  SpanNode* node = stack_.back().node->child(name);
  stack_.push_back({node, watch_.elapsed_ns()});
}

void Profiler::end() {
  if (stack_.size() <= 1) return;  // unbalanced end(): keep the root frame
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t elapsed = watch_.elapsed_ns() - f.start_ns;
  SpanNode* n = f.node;
  if (n->count == 0 || elapsed < n->min_ns) n->min_ns = elapsed;
  if (elapsed > n->max_ns) n->max_ns = elapsed;
  ++n->count;
  n->total_ns += elapsed;
  // The root's inclusive time tracks the frontier of completed work.
  const std::uint64_t now = f.start_ns + elapsed;
  if (now > root_->total_ns) root_->total_ns = now;
}

void Profiler::count(std::string_view name, std::uint64_t delta) {
  counters_[std::string(name)] += delta;
}

RunSpan::RunSpan(const Observers& obs, std::string_view protocol,
                 std::string_view name, SlotTime begin)
    : telemetry_(obs.telemetry),
      profiler_(obs.profiler),
      protocol_(protocol),
      name_(name),
      begin_(begin) {
  if (profiler_ != nullptr)
    profiler_->begin(std::string(protocol).append(".").append(name));
}

void RunSpan::close(SlotTime end, std::initializer_list<Attr> attrs) {
  if (telemetry_ != nullptr) {
    telemetry::PhaseSpan span{std::string(protocol_), std::string(name_),
                              begin_, end, {}};
    for (const auto& [key, value] : attrs) span.attrs.emplace_back(key, value);
    telemetry_->timeline.record(std::move(span));
  }
  if (profiler_ != nullptr) profiler_->end();
  telemetry_ = nullptr;
  profiler_ = nullptr;
}

}  // namespace radiomc::perf

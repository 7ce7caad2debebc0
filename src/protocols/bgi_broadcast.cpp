#include "protocols/bgi_broadcast.h"

#include <deque>
#include <memory>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

FloodStation::FloodStation(std::uint32_t decay_len, Rng rng)
    : rng_(rng), decay_(decay_len) {}

void FloodStation::on_attach(Waker& w) {
  waker_ = &w;
}

void FloodStation::seed(const Message& m) {
  informed_ = true;
  informed_at_ = 0;
  msg_ = m;
  if (waker_ != nullptr) waker_->wake();
}

void FloodStation::reset(Rng rng, std::uint64_t relay_phases) {
  rng_ = rng;
  relay_phases_ = relay_phases;
  informed_ = false;
  informed_at_ = 0;
  msg_ = Message{};
  decay_.reset();
}

bool FloodStation::relays_in(std::uint64_t phase) const noexcept {
  return informed_ && (relay_phases_ == 0 ||
                       phase < decay_.phase_of(informed_at_) + relay_phases_);
}

std::optional<Message> FloodStation::poll(SlotTime t) {
  const std::uint64_t phase = decay_.phase_of(t);
  if (!relays_in(phase) || !decay_.transmits_in(phase)) return std::nullopt;
  return msg_;
}

void FloodStation::deliver(SlotTime t, const Message& m) {
  if (informed_) return;
  if (waker_ != nullptr) waker_->wake();
  informed_ = true;
  informed_at_ = t;
  msg_ = m;
  // Joins the flood at its next poll: Decay has not yet begun this phase,
  // so a fresh invocation starts on the very next slot, even mid-phase.
}

void FloodStation::tick(SlotTime t) {
  decay_.end_slot(rng_);
  if (waker_ == nullptr) return;
  // A station outside its relay window arms nothing: an uninformed one
  // sleeps until the front's delivery wakes it, and one whose budget is
  // spent sleeps for good.
  const SlotTime next = decay_.next_ungated_slot(t);
  if (relays_in(decay_.phase_of(next))) waker_->wake_at(next);
}

BgiOutcome run_bgi_broadcast(const Graph& g, NodeId source,
                             std::uint64_t phases, std::uint64_t seed,
                             const FaultPlan& faults,
                             const Observers& observers) {
  const NodeId n = g.num_nodes();
  require(source < n, "run_bgi_broadcast: source out of range");
  const std::uint32_t dl = decay_length(g.max_degree());

  Rng master(seed);
  std::vector<std::unique_ptr<FloodStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(std::make_unique<FloodStation>(dl, master.split(v)));
  Message m;
  m.kind = MsgKind::kBcastData;
  m.origin = source;
  m.dest = kAllNodes;
  stations[source]->seed(m);

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);

  RadioNetwork net(g);
  net.observe(observers);
  FaultSchedule fsch = FaultSchedule::for_run(g, faults, master);
  net.set_faults(&fsch);
  net.attach(std::move(ptrs));
  net.run(phases * dl);
  if (observers.profiler != nullptr) {
    observers.profiler->count("flood.slots", net.now());
    observers.profiler->count("flood.polls",
                              net.engine_stats().station_polls);
  }

  BgiOutcome out;
  out.slots = net.now();
  out.informed.resize(n);
  out.informed_at.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.informed[v] = stations[v]->informed();
    out.informed_at[v] = stations[v]->informed_at();
    if (out.informed[v]) ++out.informed_count;
  }
  return out;
}

}  // namespace radiomc

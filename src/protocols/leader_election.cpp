#include "protocols/leader_election.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

MaxFloodStation::MaxFloodStation(NodeId me, LeaderConfig cfg, Rng rng)
    : me_(me),
      cfg_(cfg),
      rng_(rng),
      own_value_(0),
      best_(0),
      fresh_until_(cfg.fresh_phases),
      decay_(cfg.decay_len) {
  own_value_ = draw_value();
  best_ = own_value_;
}

std::uint64_t MaxFloodStation::draw_value() {
  if (cfg_.random_id_bits == 0) return me_;
  const std::uint32_t bits = std::min<std::uint32_t>(cfg_.random_id_bits, 63);
  return rng_.next_below(std::uint64_t{1} << bits);
}

void MaxFloodStation::reset() {
  own_value_ = draw_value();
  best_ = own_value_;
  fresh_until_ = cfg_.fresh_phases;
  decay_.reset();
}

void MaxFloodStation::on_attach(Waker& w) {
  waker_ = &w;
}

bool MaxFloodStation::advertises(std::uint64_t phase) const noexcept {
  // Heartbeats are desynchronized by node id: a frontier node's periodic
  // retransmission mostly meets silent neighbors instead of the whole
  // neighborhood heartbeating at once.
  return phase <= fresh_until_ ||
         (phase % cfg_.heartbeat) == (me_ % cfg_.heartbeat);
}

std::uint64_t MaxFloodStation::next_advertising(
    std::uint64_t phase) const noexcept {
  std::uint64_t next = phase + 1;
  if (next > fresh_until_) {
    const std::uint64_t hb = cfg_.heartbeat;
    next += (me_ % hb + hb - next % hb) % hb;
  }
  return next;
}

std::optional<Message> MaxFloodStation::poll(SlotTime t) {
  const std::uint64_t phase = decay_.phase_of(t);
  if (!advertises(phase) || !decay_.transmits_in(phase)) return std::nullopt;
  Message m;
  m.kind = MsgKind::kLeader;
  m.origin = me_;
  m.payload = best_;
  return m;
}

void MaxFloodStation::deliver(SlotTime t, const Message& m) {
  if (m.kind != MsgKind::kLeader) return;
  if (m.payload > best_) {
    best_ = m.payload;
    fresh_until_ = decay_.phase_of(t) + cfg_.fresh_phases;
    // If the current phase just became fresh, its Decay starts on the
    // very next poll, mid-phase.
    if (waker_ != nullptr) waker_->wake();
  }
}

void MaxFloodStation::tick(SlotTime t) {
  decay_.end_slot(rng_);
  if (waker_ == nullptr) return;
  // Its next Decay slot if that phase advertises, else the start of the
  // next phase that does.
  const SlotTime next = decay_.next_ungated_slot(t);
  const std::uint64_t phase = decay_.phase_of(next);
  waker_->wake_at(advertises(phase) ? next
                                    : next_advertising(phase) * cfg_.decay_len);
}

LeaderOutcome run_leader_election(const Graph& g, std::uint64_t phases,
                                  std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  require(n >= 1, "run_leader_election: empty graph");
  LeaderConfig cfg;
  cfg.decay_len = decay_length(g.max_degree());

  Rng master(seed);
  std::vector<std::unique_ptr<MaxFloodStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(
        std::make_unique<MaxFloodStation>(v, cfg, master.split(v)));

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);

  RadioNetwork net(g);
  net.attach(std::move(ptrs));
  net.run(phases * cfg.decay_len);

  LeaderOutcome out;
  out.slots = net.now();
  out.best.resize(n);
  for (NodeId v = 0; v < n; ++v) out.best[v] = stations[v]->best();
  out.unanimous =
      std::all_of(out.best.begin(), out.best.end(),
                  [&](std::uint64_t b) { return b == n - 1; });
  return out;
}

}  // namespace radiomc

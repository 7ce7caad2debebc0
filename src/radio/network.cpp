#include "radio/network.h"

#include <algorithm>
#include <utility>

#include "support/rng_tags.h"
#include "support/util.h"

namespace radiomc {

RadioNetwork::RadioNetwork(const Graph& g, Config cfg)
    : graph_(&g),
      cfg_(std::move(cfg)),
      capture_rng_(cfg_.capture_stream ? *cfg_.capture_stream : Rng(rng_tags::kCaptureFallbackSeed)) {
  require(cfg_.num_channels >= 1, "RadioNetwork: need >= 1 channel");
  require(cfg_.capture_prob >= 0.0 && cfg_.capture_prob <= 1.0,
          "RadioNetwork: capture_prob in [0, 1]");
  const std::size_t cells =
      static_cast<std::size_t>(g.num_nodes()) * cfg_.num_channels;
  act_epoch_.assign(cells, 0);
  act_msg_.assign(cells, Message{});
  rx_epoch_.assign(cells, 0);
  rx_count_.assign(cells, 0);
  rx_msg_.assign(cells, nullptr);
  keep_.assign(g.num_nodes(), 0);
  row_.assign(cfg_.num_channels, std::nullopt);
}

void RadioNetwork::attach(std::vector<Station*> stations) {
  require(stations.size() == graph_->num_nodes(),
          "RadioNetwork::attach: need exactly one station per node");
  for (Station* s : stations)
    require(s != nullptr, "RadioNetwork::attach: null station");
  stations_ = std::move(stations);
  const NodeId n = graph_->num_nodes();
  adj_.build(*graph_);
  active_set_.reset(n);
  wakers_.assign(n, Waker{});
  for (NodeId v = 0; v < n; ++v) {
    active_set_.bind(&wakers_[v], v);
    stations_[v]->on_attach(wakers_[v]);
  }
}

void RadioNetwork::step() {
  require(!stations_.empty(), "RadioNetwork::step: no stations attached");
  const ChannelId channels = cfg_.num_channels;
  // Disabled schedules cost one pointer test per slot; every per-node /
  // per-edge branch below is guarded on `fs` so the fault-free path is the
  // exact legacy code path.
  FaultSchedule* fs =
      (faults_ != nullptr && faults_->enabled()) ? faults_ : nullptr;
  if (fs) fs->begin_slot(now_);
  active_set_.begin_slot(now_);
  ++epoch_;
  tx_list_.clear();
  touched_.clear();

  // Phase 1: collect transmit intents (one optional message per channel)
  // from the active set, in ascending node order — the same order the
  // legacy full scan produced, so the transmit stream is byte-identical.
  // Crashed stations are not polled: they neither transmit nor advance
  // their protocol state (it stays frozen until recovery), and their
  // active-set membership is frozen with it.
  if (fs) metrics_.fault_crashed_slots += fs->num_crashed();
  const std::span<const NodeId> active = active_set_.active();
  if (active.size() > stats_.peak_active) stats_.peak_active = active.size();
  for (const NodeId v : active) {
    if (fs && !fs->node_alive(v)) {
      keep_[v] = 1;
      continue;
    }
    ++stats_.station_polls;
    for (auto& a : row_) a.reset();
    stations_[v]->on_slot(now_, std::span<std::optional<Message>>(row_));
    std::uint8_t sent = 0;
    const std::size_t base = static_cast<std::size_t>(v) * channels;
    for (ChannelId c = 0; c < channels; ++c) {
      if (!row_[c]) continue;
      sent = 1;
      row_[c]->sender = v;  // the radio layer stamps the physical sender
      act_epoch_[base + c] = epoch_;
      act_msg_[base + c] = *row_[c];
      tx_list_.emplace_back(v, c);
      ++metrics_.transmissions;
      if (trace_) trace_->on_transmit(now_, v, c, act_msg_[base + c]);
    }
    keep_[v] = sent;
  }

  // Phase 2: superpose transmissions at each potential receiver — a CSR
  // scatter over the flat adjacency copy into epoch-stamped counters;
  // newly-touched cells are recorded so Phase 3 never scans the full
  // (node, channel) space. In the capture model the surviving message is a
  // uniform choice among the transmitting neighbors (reservoir sampling);
  // in the main model only a lone transmitter's message matters, so the
  // kept pointer is arbitrary beyond count 1.
  const bool capture = cfg_.capture_prob > 0.0;
  for (const auto& [u, c] : tx_list_) {
    const Message& m = act_msg_[static_cast<std::size_t>(u) * channels + c];
    const NodeId* nbrs = adj_.row(u);
    const std::size_t deg = adj_.degree(u);
    for (std::size_t k = 0; k < deg; ++k) {
      const NodeId v = nbrs[k];
      if (fs) {
        if (!fs->node_alive(v)) continue;  // crashed receivers hear nothing
        if (!fs->link_up(u, k)) {          // down links carry nothing
          ++metrics_.fault_link_blocked;
          continue;
        }
      }
      const std::size_t cell = static_cast<std::size_t>(v) * channels + c;
      if (rx_epoch_[cell] != epoch_) {
        rx_epoch_[cell] = epoch_;
        rx_count_[cell] = 0;
        touched_.push_back(cell);
      }
      const std::uint32_t cnt = ++rx_count_[cell];
      if (cnt == 1) {
        rx_msg_[cell] = &m;
      } else if (capture && capture_rng_.next_below(cnt) == 0) {
        rx_msg_[cell] = &m;
      }
    }
  }

  // Phase 3: deliver where exactly one neighbor transmitted and the
  // receiver was listening on that channel. Touched cells sorted by index
  // reproduce the legacy engine's (node asc, channel asc) visit order,
  // which keeps delivery callbacks, trace events and capture-probability
  // draws in the identical sequence.
  std::sort(touched_.begin(), touched_.end());
  for (const std::size_t cell : touched_) {
    const NodeId v = static_cast<NodeId>(cell / channels);
    const ChannelId c = static_cast<ChannelId>(cell % channels);
    const std::size_t base = cell - c;
    bool transmitted_any = false;
    if (!cfg_.rx_while_tx_other) {
      for (ChannelId c2 = 0; c2 < channels; ++c2)
        transmitted_any |= act_epoch_[base + c2] == epoch_;
    }
    const bool listening = act_epoch_[cell] != epoch_ && !transmitted_any;
    if (!listening) continue;
    const std::uint32_t cnt = rx_count_[cell];
    if (cnt == 1) {
      if (fs && fs->jammed(now_, v, c)) {
        // Jamming kills an otherwise-clean reception; the receiver
        // observes silence indistinguishable from a collision.
        ++metrics_.fault_jams;
        if (trace_) trace_->on_collision(now_, v, c, cnt);
        continue;
      }
      if (fs && fs->dropped(now_, v, c)) {
        ++metrics_.fault_drops;
        continue;
      }
      ++metrics_.deliveries;
      if (trace_) trace_->on_deliver(now_, v, c, *rx_msg_[cell]);
      stations_[v]->on_receive(now_, c, *rx_msg_[cell]);
    } else if (capture && capture_rng_.bernoulli(cfg_.capture_prob)) {
      // Remark 3: the conflict resolves to one of the messages.
      if (fs && fs->dropped(now_, v, c)) {
        ++metrics_.fault_drops;
        continue;
      }
      ++metrics_.deliveries;
      ++metrics_.capture_deliveries;
      if (trace_) trace_->on_deliver(now_, v, c, *rx_msg_[cell]);
      stations_[v]->on_receive(now_, c, *rx_msg_[cell]);
    } else {
      ++metrics_.collision_events;
      if (trace_) trace_->on_collision(now_, v, c, cnt);
      // No collision detection: the station is not told anything.
    }
  }

  for (const NodeId v : active) {
    if (fs && !fs->node_alive(v)) continue;
    stations_[v]->on_slot_end(now_);
  }
  active_set_.end_slot(keep_.data());
  stats_.wake_events = active_set_.wake_events();
  ++now_;
  ++metrics_.slots;
  // After the slot counter advances, so a hook observing slot t sees the
  // world with t slots fully applied.
  if (slot_hook_ != nullptr) slot_hook_->on_slot_done(now_);
}

void RadioNetwork::run(SlotTime count) {
  require(count == 0 || !stations_.empty(),
          "RadioNetwork::run: no stations attached");
  const SlotTime end = now_ + count;
  while (pass_idle(end)) step();
}

bool RadioNetwork::pass_idle(SlotTime limit) {
  // A slot hook must see every slot, and an enabled fault schedule
  // changes state (and counts crashed slots) in every slot: both keep the
  // plain loop. A trace sink does not: an idle slot emits no events.
  // The `now_ < limit` test keeps time from running backwards when a
  // caller's limit (a watchdog deadline) is already behind it.
  if (now_ < limit && slot_hook_ == nullptr &&
      (faults_ == nullptr || !faults_->enabled())) {
    // An idle slot polls nobody, so all it would do is advance the
    // clocks: do that for the whole idle span at once.
    const SlotTime busy = active_set_.skip_idle(now_, limit);
    metrics_.slots += busy - now_;
    now_ = busy;
  }
  return now_ < limit;
}

}  // namespace radiomc

#include "protocols/collection.h"

#include <algorithm>
#include <deque>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

namespace {
/// A message's identity, (origin, seq), as one sortable key.
std::uint64_t message_key(const Message& m) {
  return (static_cast<std::uint64_t>(m.origin) << 32) | m.seq;
}
}  // namespace

CollectionStation::CollectionStation(NodeId me, const BfsTree& tree,
                                     CollectionConfig cfg, Rng rng)
    : CollectionStation(me, cfg, rng) {
  set_local(tree.parent[me], tree.level[me], me == tree.root);
}

CollectionStation::CollectionStation(NodeId me, CollectionConfig cfg, Rng rng)
    : hop_(me, cfg.slots, rng), dedup_guard_(cfg.dedup_guard) {}

void CollectionStation::set_local(NodeId parent, std::uint32_t level,
                                  bool is_root) {
  is_root_ = is_root;
  bound_ = true;
  hop_.place(parent, level);
}

void CollectionStation::reset(Rng rng) {
  hop_.reset(rng);
  is_root_ = false;
  bound_ = false;
  sink_.clear();
  accept_log_.clear();
  last_key_.clear();
}

std::optional<Message> CollectionStation::poll(SlotTime t) {
  if (!bound_) return std::nullopt;
  return hop_.poll(t, /*may_send=*/!is_root_);  // the root is the sink
}

void CollectionStation::deliver(SlotTime t, const Message& m) {
  if (!bound_ || !hop_.receive(t, m)) return;
  // Data subslot: accept only messages from our BFS children (§4).
  if (!is_upbound_kind(m.kind) || m.sender_parent != hop_.id()) return;
  hop_.acknowledge(m);

  if (dedup_guard_) {
    // Remark 3 mode: a lost ack makes the child retransmit its head;
    // acknowledge the duplicate again (or it retries forever) but deliver
    // it once. A repeat is always of the child's last accepted key.
    const std::uint64_t key = message_key(m);
    const auto [it, fresh] = last_key_.try_emplace(m.sender, key);
    if (!fresh && it->second == key) return;
    it->second = key;
  }

  if (record_accepts_)
    accept_log_.emplace_back(hop_.clock().decode(t).phase, hop_.level() + 1);

  if (is_root_)
    arrive(t, m);
  else
    hop_.push(m);
}

void CollectionStation::inject(const Message& m) {
  require(m.origin == hop_.id(),
          "CollectionStation::inject: origin must be self");
  if (is_root_) {
    hop_.wake();
    arrive(0, m);
  } else {
    hop_.push(m);
  }
}

void CollectionStation::arrive(SlotTime t, const Message& m) {
  sink_.push_back({t, m});
  if (root_handler_) root_handler_(t, m);
}

CollectionOutcome run_collection(const Graph& g, const BfsTree& tree,
                                 std::vector<Message> initial,
                                 const CollectionConfig& cfg,
                                 std::uint64_t seed, SlotTime max_slots) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "run_collection: tree/graph size mismatch");

  Rng master(seed);
  std::vector<std::unique_ptr<CollectionStation>> stations;
  stations.reserve(n);
  // Messages queued per BFS level, kept exact by the stations' hops: every
  // in-network message sits on exactly one buffer (§4.1).
  std::vector<std::uint64_t> queued(tree.depth + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    stations.push_back(std::make_unique<CollectionStation>(
        v, tree, cfg, master.split(v)));
    stations.back()->record_accepts(true);
    stations.back()->count_buffer_into(queued);
  }
  const std::size_t expected = initial.size();
  // The messages to collect, by sorted key, for the first-copy count below.
  std::vector<std::uint64_t> keys;
  keys.reserve(expected);
  for (const Message& m : initial) {
    require(m.origin < n, "run_collection: origin out of range");
    keys.push_back(message_key(m));
    stations[m.origin]->inject(m);
  }
  std::sort(keys.begin(), keys.end());
  require(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
          "run_collection: (origin, seq) must be unique");

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);

  RadioNetwork net(g);
  net.observe(cfg);
  // Derived after the station splits.
  FaultSchedule faults = FaultSchedule::for_run(g, cfg.faults, master);
  net.set_faults(&faults);
  net.attach(std::move(ptrs));

  CollectionOutcome out;
  const std::uint64_t slots_per_phase = stations[0]->clock().slots_per_phase();
  out.occupied_phases.assign(tree.depth + 1, 0);
  out.advance_phases.assign(tree.depth + 1, 0);

  // Messages counted into occupancy at the phase boundary, O(depth) from
  // the per-level tally; advances read from the accept logs afterwards and
  // conditioned on start-of-phase occupancy, matching Theorem 4.1's
  // hypothesis ("a level containing messages at the beginning of a
  // phase").
  std::vector<std::vector<std::uint64_t>> occupied_list(tree.depth + 1);
  auto snapshot_occupancy = [&](std::uint64_t phase) {
    for (std::uint32_t l = 1; l <= tree.depth; ++l)
      if (queued[l] > 0) {
        ++out.occupied_phases[l];
        occupied_list[l].push_back(phase);
      }
    if (cfg.telemetry != nullptr) {
      // Start-of-phase queued messages per BFS level: the measured
      // occupancy to set against model 4's tandem-queue prediction
      // (src/queueing/), one histogram per level.
      for (std::uint32_t l = 1; l <= tree.depth; ++l)
        cfg.telemetry->metrics
            .distribution("collection.queue_depth",
                          {{"level", std::to_string(l)}})
            .add(static_cast<std::int64_t>(queued[l]));
    }
  };

  // Progress is the first copy of each message at the root. Without the
  // dedup guard a lost ack (fault injection) makes a child resend a
  // message the root already took, and the root takes it again; counting
  // raw arrivals would then end the run with messages missing.
  const CollectionStation* root = stations[tree.root].get();
  std::vector<bool> got(keys.size(), false);
  std::size_t read = 0;  // root sink entries already counted
  const auto arrived = [&] {
    const std::vector<CollectionStation::Delivery>& sink = root->root_sink();
    for (; read < sink.size(); ++read) {
      const std::uint64_t key = message_key(sink[read].msg);
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      if (it == keys.end() || *it != key || got[it - keys.begin()]) continue;
      got[it - keys.begin()] = true;
      out.deliveries.push_back(sink[read]);
    }
    return out.deliveries.size();
  };
  StallWatchdog watchdog(cfg.stall_slots, arrived());
  perf::RunSpan drain_span(cfg, "collection", "drain", 0);
  // One run_until per phase, so every phase boundary is snapshotted;
  // kFailed (not done, watchdog quiet) means "run the next phase".
  out.status = watchdog.status(arrived() >= expected);
  while (out.status == RunStatus::kFailed && net.now() < max_slots) {
    snapshot_occupancy(net.now() / slots_per_phase);
    const SlotTime end = std::min(net.now() + slots_per_phase, max_slots);
    out.status = net.run_until(expected, arrived, end, watchdog);
  }
  out.completed = out.status == RunStatus::kOk;
  out.slots = net.now();
  out.phases = (net.now() + slots_per_phase - 1) / slots_per_phase;
  drain_span.close(out.slots,
                   {{"k", static_cast<std::int64_t>(expected)},
                    {"phases", static_cast<std::int64_t>(out.phases)},
                    {"depth", static_cast<std::int64_t>(tree.depth)},
                    {"completed", out.completed ? 1 : 0}});
  out.engine_polls = net.engine_stats().station_polls;

  // An "advance of level i in phase p" = some level-(i-1) node accepted a
  // message from a level-i child during p. Count each (level, phase) once,
  // and only when level i held messages at the start of p.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> events;
  for (NodeId v = 0; v < n; ++v)
    for (auto [phase, from_level] : stations[v]->accept_log())
      if (from_level <= tree.depth) events.emplace_back(from_level, phase);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  for (auto [from_level, phase] : events) {
    const auto& occ = occupied_list[from_level];
    if (std::binary_search(occ.begin(), occ.end(), phase))
      ++out.advance_phases[from_level];
  }

  if (cfg.profiler != nullptr) {
    cfg.profiler->count("collection.slots", out.slots);
    cfg.profiler->count("collection.phases", out.phases);
    cfg.profiler->count("collection.delivered", out.deliveries.size());
    cfg.profiler->count("collection.polls", out.engine_polls);
  }

  if (cfg.telemetry != nullptr) {
    telemetry::Telemetry& tel = *cfg.telemetry;
    tel.metrics.counter("collection.messages_delivered")
        .inc(out.deliveries.size());
    tel.metrics.counter("collection.phases").inc(out.phases);
    // Theorem 4.1's per-level event counts: phases a level was occupied at
    // the start, and among those, phases it advanced a message upward.
    for (std::uint32_t l = 1; l <= tree.depth; ++l) {
      const telemetry::Labels lv = {{"level", std::to_string(l)}};
      tel.metrics.counter("collection.occupied_phases", lv)
          .inc(out.occupied_phases[l]);
      tel.metrics.counter("collection.advance_phases", lv)
          .inc(out.advance_phases[l]);
    }
    telemetry::publish_net_metrics(net.metrics(), tel.metrics, "collection");
    telemetry::publish_fault_run(tel, faults, net.metrics(), "collection",
                                 out.slots, out.status);
  }
  return out;
}

}  // namespace radiomc

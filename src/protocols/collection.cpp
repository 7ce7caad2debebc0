#include "protocols/collection.h"

#include <algorithm>
#include <deque>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

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
    const std::uint64_t key =
        (static_cast<std::uint64_t>(m.origin) << 32) | m.seq;
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
  for (NodeId v = 0; v < n; ++v) {
    stations.push_back(std::make_unique<CollectionStation>(
        v, tree, cfg, master.split(v)));
    stations.back()->record_accepts(true);
  }
  const std::size_t expected = initial.size();
  for (const Message& m : initial) {
    require(m.origin < n, "run_collection: origin out of range");
    stations[m.origin]->inject(m);
  }

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

  // Messages counted into occupancy at the phase boundary; advances read
  // from the accept logs afterwards and conditioned on start-of-phase
  // occupancy, matching Theorem 4.1's hypothesis ("a level containing
  // messages at the beginning of a phase").
  std::vector<bool> occupied_now(tree.depth + 1, false);
  std::vector<std::uint64_t> depth_now(tree.depth + 1, 0);
  std::vector<std::vector<std::uint64_t>> occupied_list(tree.depth + 1);
  auto snapshot_occupancy = [&](std::uint64_t phase) {
    std::fill(occupied_now.begin(), occupied_now.end(), false);
    std::fill(depth_now.begin(), depth_now.end(), 0);
    for (NodeId v = 0; v < n; ++v)
      if (stations[v]->buffer_size() > 0) {
        occupied_now[tree.level[v]] = true;
        depth_now[tree.level[v]] += stations[v]->buffer_size();
      }
    for (std::uint32_t l = 1; l <= tree.depth; ++l)
      if (occupied_now[l]) {
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
            .add(static_cast<std::int64_t>(depth_now[l]));
    }
  };

  const CollectionStation* root = stations[tree.root].get();
  const auto arrived = [root] { return root->root_sink().size(); };
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
  out.deliveries = root->root_sink();
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

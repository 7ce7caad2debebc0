#include "protocols/ranking.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <utility>

#include "perf/profiler.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

RankingOutcome run_ranking(const Graph& g, const PreparationResult& prep,
                           const std::vector<std::uint64_t>& app_ids,
                           std::uint64_t seed, SlotTime max_slots,
                           const Observers& observers,
                           const FaultPlan& faults, SlotTime stall_slots) {
  const NodeId n = g.num_nodes();
  require(app_ids.size() == n, "run_ranking: one app id per node");
  require(prep.routing.size() == n, "run_ranking: bad preparation");
  RankingOutcome out;
  out.rank.assign(n, 0);

  // Reconstruct tree facts the drivers need from the routing tables.
  NodeId root = kNoNode;
  std::vector<NodeId> parents(n, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    parents[v] = prep.routing[v].parent;
    if (parents[v] == kNoNode) root = v;
  }
  require(root != kNoNode, "run_ranking: no root in preparation");
  const BfsTree tree = BfsTree::from_parents(root, parents);

  if (n == 1) {
    out.rank[0] = 1;
    out.completed = true;
    return out;
  }

  // Phase 1: collect (app id, DFS address) pairs.
  std::vector<Message> initial;
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = 0;
    m.payload = app_ids[v];
    m.aux = prep.routing[v].number;  // sender's own address (§5.1)
    initial.push_back(m);
  }
  CollectionConfig ccfg = CollectionConfig::for_graph(g);
  static_cast<Observers&>(ccfg) = observers;
  ccfg.faults = faults;
  ccfg.stall_slots = stall_slots;
  perf::RunSpan collect_span(observers, "ranking", "collect", 0);
  const CollectionOutcome collected =
      run_collection(g, tree, initial, ccfg, seed, max_slots);
  out.collect_slots = collected.slots;
  collect_span.close(out.collect_slots,
                     {{"n", static_cast<std::int64_t>(n)},
                      {"completed", collected.completed ? 1 : 0}});
  if (!collected.completed) {
    out.status = collected.status;
    return out;
  }

  // Root-side computation: sort ids, assign ranks 1..n.
  struct Entry {
    std::uint64_t id;
    std::uint32_t addr;
    NodeId node;  // driver-side bookkeeping for the result vector
  };
  std::vector<Entry> entries;
  entries.push_back({app_ids[root], prep.routing[root].number, root});
  for (const auto& d : collected.deliveries)
    entries.push_back({d.msg.payload, d.msg.aux, d.msg.origin});
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });

  // Phase 2: downward delivery of ranks from the root (§5.3 alone: the
  // root is an ancestor of every destination).
  P2pConfig pcfg = P2pConfig::for_graph(g);
  Rng master(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::unique_ptr<P2pUpStation>> ups;
  std::vector<std::unique_ptr<P2pDownStation>> downs;
  std::vector<AckedHop::Delivery> fresh;  // down-sink entries since last read
  for (NodeId v = 0; v < n; ++v) {
    ups.push_back(std::make_unique<P2pUpStation>(v, prep.routing[v], pcfg,
                                                 master.split(2 * v)));
    downs.push_back(std::make_unique<P2pDownStation>(
        v, prep.routing[v], pcfg, master.split(2 * v + 1)));
    ups.back()->set_down(downs.back().get());
    downs.back()->feed_into(fresh);
  }
  std::uint64_t expected_downs = 0;
  for (std::uint32_t r = 0; r < entries.size(); ++r) {
    const Entry& e = entries[r];
    if (e.node == root) {
      out.rank[root] = r + 1;
      continue;
    }
    ups[root]->send(e.addr, r + 1);  // routes straight into the down half
    ++expected_downs;
  }

  std::deque<ChannelMuxStation> muxes;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < n; ++v)
    muxes.emplace_back(std::vector<SubStation*>{ups[v].get(), downs[v].get()});
  for (auto& m : muxes) ptrs.push_back(&m);
  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  RadioNetwork net(g, ncfg);
  // The deliver network's clock restarts at 0; its events and slot pulses
  // reach the observers on the collect stage's timeline, after it.
  ShiftedObservers deliver_obs(observers, out.collect_slots);
  net.observe(deliver_obs.observers());
  FaultSchedule fsch = FaultSchedule::for_run(g, faults, master);
  net.set_faults(&fsch);
  net.attach(std::move(ptrs));

  // Each node awaits exactly one rank message; count nodes served, by
  // their DFS addresses 0..n-1 (a down sink takes only its own), not sink
  // entries — a lost ack (fault injection) duplicates a delivery, and raw
  // entry counts would declare completion while a node starves.
  std::vector<std::uint8_t> served(n, 0);
  std::uint64_t served_count = 0;
  auto delivered = [&] {
    for (const AckedHop::Delivery& d : fresh)
      if (!std::exchange(served.at(d.msg.dest), 1)) ++served_count;
    fresh.clear();
    return served_count;
  };
  StallWatchdog watchdog(stall_slots, delivered());
  perf::RunSpan deliver_span(observers, "ranking", "deliver",
                             out.collect_slots);
  out.status = net.run_until(expected_downs, delivered, max_slots, watchdog);
  out.deliver_slots = net.now();
  deliver_span.close(out.collect_slots + out.deliver_slots,
                     {{"ranks", static_cast<std::int64_t>(expected_downs)},
                      {"completed", out.status == RunStatus::kOk ? 1 : 0}});
  if (observers.telemetry != nullptr) {
    telemetry::MetricsRegistry& reg = observers.telemetry->metrics;
    telemetry::publish_net_metrics(net.metrics(), reg, "ranking_deliver");
    telemetry::publish_fault_metrics(fsch, net.metrics(), reg,
                                     "ranking_deliver");
  }
  if (out.status != RunStatus::kOk) return out;

  for (NodeId v = 0; v < n; ++v)
    for (const auto& d : downs[v]->sink())
      out.rank[v] = static_cast<std::uint32_t>(d.msg.payload);
  out.completed = true;
  return out;
}

}  // namespace radiomc

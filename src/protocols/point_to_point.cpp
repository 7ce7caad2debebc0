#include "protocols/point_to_point.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

// ---------------------------------------------------------------------------
// Upward subprotocol
// ---------------------------------------------------------------------------

P2pUpStation::P2pUpStation(NodeId me, const RoutingInfo& info, P2pConfig cfg,
                           Rng rng)
    : info_(info), hop_(me, cfg.slots, rng) {
  hop_.place(info.parent, info.level);
}

std::uint32_t P2pUpStation::send(std::uint32_t dest_addr,
                                 std::uint64_t payload) {
  Message m;
  m.kind = MsgKind::kData;
  m.origin = hop_.id();
  m.dest = dest_addr;  // p2p addresses are DFS numbers
  m.payload = payload;
  m.seq = next_seq_++;
  route(0, m);
  hop_.wake();  // fresh duty for a sleeping node
  return m.seq;
}

void P2pUpStation::route(SlotTime t, const Message& m) {
  if (m.dest == info_.number) {
    sink_.push_back({t, m});  // addressed to this node
    if (feed_ != nullptr) feed_->push_back(sink_.back());
  } else if (info_.subtree_contains(m.dest)) {
    require(down_ != nullptr, "P2pUpStation: downward half not wired");
    down_->enqueue(m);  // LCA reached: turn downwards (§5.2)
  } else {
    hop_.push(m);  // keep climbing
  }
}

std::optional<Message> P2pUpStation::poll(SlotTime t) {
  // Without a parent a rootward buffer never drains.
  return hop_.poll(t, /*may_send=*/info_.parent != kNoNode);
}

void P2pUpStation::deliver(SlotTime t, const Message& m) {
  if (!hop_.receive(t, m)) return;
  // Data subslot: accept only from our own BFS children (§4 tagging).
  if (m.kind != MsgKind::kData || m.sender_parent != hop_.id()) return;
  hop_.acknowledge(m);
  route(t, m);
}

// ---------------------------------------------------------------------------
// Downward subprotocol
// ---------------------------------------------------------------------------

P2pDownStation::P2pDownStation(NodeId me, const RoutingInfo& info,
                               P2pConfig cfg, Rng rng)
    : info_(info), hop_(me, cfg.slots, rng) {
  hop_.place(info.parent, info.level);
}

std::optional<Message> P2pDownStation::poll(SlotTime t) {
  return hop_.poll(t, /*may_send=*/true);
}

void P2pDownStation::deliver(SlotTime t, const Message& m) {
  if (!hop_.receive(t, m)) return;
  // Data subslot (§5.3): "a node w receiving a message designated to u
  // processes it only if u is a BFS-tree descendant of w". The appended
  // sender id additionally tells us the message moves downwards (it comes
  // from our BFS parent), not from one of our own children.
  if (m.kind != MsgKind::kData || m.sender != info_.parent ||
      !info_.subtree_contains(m.dest))
    return;
  hop_.acknowledge(m);
  if (m.dest == info_.number) {
    sink_.push_back({t, m});  // final delivery
    if (feed_ != nullptr) feed_->push_back(sink_.back());
  } else {
    hop_.push(m);
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

P2pOutcome run_point_to_point(const Graph& g, const PreparationResult& prep,
                              const std::vector<P2pRequest>& requests,
                              const P2pConfig& cfg, std::uint64_t seed,
                              SlotTime max_slots) {
  const NodeId n = g.num_nodes();
  require(prep.routing.size() == n, "run_point_to_point: bad preparation");

  Rng master(seed);
  std::vector<std::unique_ptr<P2pUpStation>> ups;
  std::vector<std::unique_ptr<P2pDownStation>> downs;
  ups.reserve(n);
  downs.reserve(n);
  // Every sink entry since the driver's last read, from all 2n sinks.
  std::vector<AckedHop::Delivery> fresh;
  for (NodeId v = 0; v < n; ++v) {
    ups.push_back(std::make_unique<P2pUpStation>(v, prep.routing[v], cfg,
                                                 master.split(2 * v)));
    downs.push_back(std::make_unique<P2pDownStation>(v, prep.routing[v], cfg,
                                                     master.split(2 * v + 1)));
    ups.back()->set_down(downs.back().get());
    ups.back()->feed_into(fresh);
    downs.back()->feed_into(fresh);
  }

  // Inject the requests; remember (origin, seq) -> request index so the
  // driver can time each delivery. The request set is fixed up front, so a
  // sorted vector gives deterministic, allocation-free lookups.
  std::vector<std::pair<std::uint64_t, std::size_t>> tag_to_request;
  tag_to_request.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const P2pRequest& r = requests[i];
    require(r.src < n && r.dst < n, "run_point_to_point: bad request");
    const std::uint32_t addr = prep.labels.number[r.dst];
    const std::uint32_t seq = ups[r.src]->send(addr, r.payload);
    tag_to_request.emplace_back(
        (static_cast<std::uint64_t>(r.src) << 32) | seq, i);
  }
  std::sort(tag_to_request.begin(), tag_to_request.end());
  const auto find_request =
      [&tag_to_request](std::uint64_t tag) -> const std::size_t* {
    const auto it = std::lower_bound(
        tag_to_request.begin(), tag_to_request.end(), tag,
        [](const auto& e, std::uint64_t t) { return e.first < t; });
    return it != tag_to_request.end() && it->first == tag ? &it->second
                                                          : nullptr;
  };

  std::deque<ChannelMuxStation> muxes;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < n; ++v)
    muxes.emplace_back(std::vector<SubStation*>{ups[v].get(), downs[v].get()});
  for (auto& m : muxes) ptrs.push_back(&m);

  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  RadioNetwork net(g, ncfg);
  net.observe(cfg);
  FaultSchedule faults = FaultSchedule::for_run(g, cfg.faults, master);
  net.set_faults(&faults);
  net.attach(std::move(ptrs));

  P2pOutcome out;
  out.delivery_slot.assign(requests.size(), static_cast<SlotTime>(-1));
  std::uint64_t delivered = 0;
  // Reads only the arrivals since the last read: all from the slot just
  // run (or, before the first slot, the self-addressed sends of slot 0),
  // so their order within one read cannot change a delivery slot.
  auto harvest = [&] {
    for (const AckedHop::Delivery& d : fresh) {
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(d.msg.origin) << 32) | d.msg.seq;
      // First copy only: a lost ack (fault injection) makes the sender
      // retransmit an already-delivered message, and the radio level
      // cannot deduplicate that — the end-to-end count must.
      const std::size_t* req = find_request(tag);
      if (req != nullptr &&
          out.delivery_slot[*req] == static_cast<SlotTime>(-1)) {
        out.delivery_slot[*req] = d.slot;
        ++delivered;
      }
    }
    fresh.clear();
    return delivered;
  };

  // Self-addressed requests complete instantly.
  StallWatchdog watchdog(cfg.stall_slots, harvest());
  perf::RunSpan run_span(cfg, "point_to_point", "run", 0);
  out.status = net.run_until(requests.size(), harvest, max_slots, watchdog);
  out.completed = out.status == RunStatus::kOk;
  out.slots = net.now();
  run_span.close(out.slots,
                 {{"k", static_cast<std::int64_t>(requests.size())},
                  {"delivered", static_cast<std::int64_t>(delivered)},
                  {"completed", out.completed ? 1 : 0}});
  out.delivered = delivered;
  out.engine_polls = net.engine_stats().station_polls;
  if (cfg.profiler != nullptr) {
    cfg.profiler->count("p2p.slots", out.slots);
    cfg.profiler->count("p2p.delivered", delivered);
    cfg.profiler->count("p2p.polls", out.engine_polls);
  }

  if (cfg.telemetry != nullptr) {
    telemetry::Telemetry& tel = *cfg.telemetry;
    tel.metrics.counter("p2p.requests").inc(requests.size());
    tel.metrics.counter("p2p.delivered").inc(delivered);
    telemetry::Distribution& lat = tel.metrics.distribution(
        "p2p.delivery_slot", {}, telemetry::Scale::kLog2);
    for (SlotTime s : out.delivery_slot)
      if (s != static_cast<SlotTime>(-1))
        lat.add(static_cast<std::int64_t>(s));
    telemetry::publish_net_metrics(net.metrics(), tel.metrics,
                                   "point_to_point");
    telemetry::publish_fault_run(tel, faults, net.metrics(), "point_to_point",
                                 out.slots, out.status);
  }
  return out;
}

}  // namespace radiomc

#include "protocols/broadcast_service.h"

#include "perf/profiler.h"
#include "support/util.h"

namespace radiomc {

BroadcastService::BroadcastService(const Graph& g, const BfsTree& tree,
                                   BroadcastServiceConfig cfg,
                                   std::uint64_t seed)
    : cfg_(cfg) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "BroadcastService: tree/graph mismatch");
  Rng master(seed);
  next_up_seq_.assign(n, 0);

  coll_.reserve(n);
  dist_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    coll_.push_back(std::make_unique<CollectionStation>(
        v, tree, cfg.collection, master.split(2 * v)));
    dist_.push_back(std::make_unique<DistributionStation>(
        v, tree, cfg.distribution, master.split(2 * v + 1)));
    if (v != tree.root) dist_[v]->count_prefix_into(prefix_tally_);
  }

  // Control plane: a node's distribution half emits NACKs / checkpoint
  // acks into its own collection buffer; the root's collection sink feeds
  // the distribution sender.
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    CollectionStation* up = coll_[v].get();
    std::uint32_t* seq = &next_up_seq_[v];
    const NodeId me = v;
    dist_[v]->set_control(
        [up, seq, me](std::uint32_t missing) {
          Message m;
          m.kind = MsgKind::kNack;
          m.origin = me;
          m.seq = (*seq)++;
          m.aux = missing;
          up->inject(m);
        },
        [up, seq, me](std::uint32_t cp) {
          Message m;
          m.kind = MsgKind::kSetupReport;  // checkpoint ack (control)
          m.origin = me;
          m.seq = (*seq)++;
          m.aux = cp;
          up->inject(m);
        });
  }
  DistributionStation* root_dist = dist_[tree.root].get();
  coll_[tree.root]->set_root_handler(
      [root_dist](SlotTime, const Message& m) {
        switch (m.kind) {
          case MsgKind::kData:
            root_dist->root_enqueue(m);
            break;
          case MsgKind::kNack:
            root_dist->root_request_resend(m.aux);
            break;
          case MsgKind::kSetupReport:
            root_dist->root_checkpoint_ack(m.origin, m.aux);
            break;
          // The collection channel can only surface upbound kinds at the
          // root; anything else is ignored rather than fed downstream.
          case MsgKind::kAck:
          case MsgKind::kLeader:
          case MsgKind::kBfsAnnounce:
          case MsgKind::kDfsToken:
          case MsgKind::kBcastData:
            break;
        }
      });

  // Wire the stacks onto the network.
  std::vector<Station*> ptrs;
  RadioNetwork::Config ncfg = cfg.engine;
  if (cfg.mode == BroadcastServiceConfig::ChannelMode::kSeparate) {
    ncfg.num_channels = 2;
    for (NodeId v = 0; v < n; ++v)
      muxes_.push_back(std::make_unique<ChannelMuxStation>(
          std::vector<SubStation*>{coll_[v].get(), dist_[v].get()}));
  } else {
    ncfg.num_channels = 1;
    for (NodeId v = 0; v < n; ++v)
      muxes_.push_back(std::make_unique<TimeDivisionStation>(
          std::vector<SubStation*>{coll_[v].get(), dist_[v].get()}));
  }
  for (auto& m : muxes_) ptrs.push_back(m.get());
  net_ = std::make_unique<RadioNetwork>(g, ncfg);
  net_->observe(cfg);
  faults_ = std::make_unique<FaultSchedule>(
      FaultSchedule::for_run(g, cfg.faults, master));
  net_->set_faults(faults_.get());
  net_->attach(std::move(ptrs));
}

void BroadcastService::broadcast(NodeId src, std::uint64_t payload) {
  Message m;
  m.kind = MsgKind::kData;
  m.origin = src;
  m.seq = next_up_seq_[src]++;
  m.payload = payload;
  coll_[src]->inject(m);  // the root handler forwards into distribution
  ++originated_;
}

void BroadcastService::run(SlotTime count) { net_->run(count); }

SlotTime BroadcastService::now() const { return net_->now(); }

const NetMetrics& BroadcastService::metrics() const {
  return net_->metrics();
}

bool BroadcastService::run_until_delivered(SlotTime max_slots) {
  const auto prefix = [this] { return min_delivered_prefix(); };
  StallWatchdog watchdog(cfg_.stall_slots, prefix(), net_->now());
  status_ = net_->run_until(originated_, prefix, max_slots, watchdog);
  return status_ == RunStatus::kOk;
}

KBroadcastOutcome run_k_broadcast(const Graph& g, const BfsTree& tree,
                                  const std::vector<NodeId>& sources,
                                  BroadcastServiceConfig cfg,
                                  std::uint64_t seed, SlotTime max_slots) {
  BroadcastService svc(g, tree, cfg, seed);
  for (std::size_t i = 0; i < sources.size(); ++i)
    svc.broadcast(sources[i], 0x42000000ULL + i);
  KBroadcastOutcome out;
  perf::RunSpan run_span(cfg, "distribution", "k_broadcast", 0);
  out.completed = svc.run_until_delivered(max_slots);
  out.status = svc.status();
  out.slots = svc.now();
  run_span.close(out.slots,
                 {{"k", static_cast<std::int64_t>(sources.size())},
                  {"completed", out.completed ? 1 : 0}});
  out.root_resends = svc.distribution(tree.root).root_resends();
  out.delivered_prefix = svc.min_delivered_prefix();
  out.engine_polls = svc.engine_stats().station_polls;
  if (cfg.profiler != nullptr) {
    cfg.profiler->count("broadcast.slots", out.slots);
    cfg.profiler->count("broadcast.root_resends", out.root_resends);
    cfg.profiler->count("broadcast.polls", out.engine_polls);
  }

  if (cfg.telemetry != nullptr) {
    telemetry::Telemetry& tel = *cfg.telemetry;
    const DistributionStation& root = svc.distribution(tree.root);
    tel.metrics.counter("distribution.broadcasts").inc(sources.size());
    tel.metrics.counter("distribution.root_fresh_sent")
        .inc(root.root_sent_fresh());
    tel.metrics.counter("distribution.root_resends").inc(out.root_resends);
    tel.metrics.counter("distribution.root_idle_rebroadcasts")
        .inc(root.root_idle_rebroadcasts());
    telemetry::publish_net_metrics(svc.metrics(), tel.metrics,
                                   "distribution");
    telemetry::publish_fault_run(tel, svc.faults(), svc.metrics(),
                                 "distribution", out.slots, out.status);
  }
  return out;
}

}  // namespace radiomc

#include "protocols/ethernet_emulation.h"

#include <algorithm>

#include "perf/profiler.h"
#include "support/util.h"

namespace radiomc {

namespace {

// Collection report payload: bit 63 = idle marker, low 32 bits = frame.
constexpr std::uint64_t kIdleBit = 1ull << 63;

// Distribution outcome payload: [61:60] kind, [59:32] winner, [31:0] frame.
std::uint64_t encode_outcome(VirtualEthernet::Feedback kind, NodeId winner,
                             std::uint32_t frame) {
  return (static_cast<std::uint64_t>(kind) << 60) |
         (static_cast<std::uint64_t>(winner & 0x0FFFFFFF) << 32) | frame;
}

VirtualEthernet::RoundOutcome decode_outcome(std::uint32_t round,
                                             std::uint64_t payload) {
  VirtualEthernet::RoundOutcome o;
  o.round = round;
  o.kind = static_cast<VirtualEthernet::Feedback>((payload >> 60) & 3);
  o.winner = static_cast<NodeId>((payload >> 32) & 0x0FFFFFFF);
  o.frame = static_cast<std::uint32_t>(payload);
  if (o.kind != VirtualEthernet::Feedback::kSuccess) {
    o.winner = kNoNode;
    o.frame = 0;
  }
  return o;
}

}  // namespace

VirtualEthernet::VirtualEthernet(const Graph& g, const BfsTree& tree,
                                 Config cfg, std::uint64_t seed)
    : g_(g), tree_(tree), cfg_(cfg) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "VirtualEthernet: tree/graph mismatch");
  Rng master(seed);
  node_round_.assign(n, 0);
  node_outcomes_.resize(n);
  reported_.assign(n, 0);

  for (NodeId v = 0; v < n; ++v) {
    coll_.push_back(std::make_unique<CollectionStation>(
        v, tree, cfg.collection, master.split(2 * v)));
    dist_.push_back(std::make_unique<DistributionStation>(
        v, tree, cfg.distribution, master.split(2 * v + 1)));
  }
  coll_[tree.root]->set_root_handler([this](SlotTime, const Message& m) {
    if (m.kind == MsgKind::kData) take_report(m.origin, m.aux, m.payload);
  });
  // Non-root stations learn outcomes through the distribution pipeline;
  // the outcome's distribution seq IS the round number (the root publishes
  // one outcome per round, in order).
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    dist_[v]->set_delivery_handler([this, v](SlotTime, const Message& m) {
      node_outcomes_[v].push_back(decode_outcome(m.seq, m.payload));
      dirty_.push_back(v);
      ++arrivals_;
    });
  }

  std::vector<Station*> ptrs;
  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  for (NodeId v = 0; v < n; ++v)
    muxes_.push_back(std::make_unique<ChannelMuxStation>(
        std::vector<SubStation*>{coll_[v].get(), dist_[v].get()}));
  for (auto& m : muxes_) ptrs.push_back(m.get());
  // The fault seed is drawn after the per-station splits above (Rng::split
  // advances the parent, so a draw before them would shift every station).
  faults_ = std::make_unique<FaultSchedule>(
      FaultSchedule::for_run(g, cfg_.faults, master));
  net_ = std::make_unique<RadioNetwork>(g, ncfg);
  net_->observe(cfg_);
  net_->set_faults(faults_.get());
  net_->attach(std::move(ptrs));
}

void VirtualEthernet::start_round(NodeId v, std::uint32_t round) {
  const std::optional<std::uint32_t> offer =
      policy_ ? policy_(v, round) : std::nullopt;
  const std::uint64_t payload =
      offer ? static_cast<std::uint64_t>(*offer) : kIdleBit;
  if (v == tree_.root) {
    take_report(v, round, payload);
    return;
  }
  Message m;
  m.kind = MsgKind::kData;
  m.origin = v;
  m.seq = round;  // a node reports each round once, in order
  m.aux = round;
  m.payload = payload;
  coll_[v]->inject(m);
}

void VirtualEthernet::take_report(NodeId v, std::uint32_t round,
                                  std::uint64_t payload) {
  // The round after the last one taken from v is the open one: v sent the
  // report after the round before it closed, and it cannot close without v.
  if (reported_[v] != round) return;
  ++reported_[v];
  ++arrivals_;
  ++open_.reporters;
  if (payload & kIdleBit) return;
  ++open_.offers;
  open_.last_node = v;
  open_.last_frame = static_cast<std::uint32_t>(payload);
}

void VirtualEthernet::pump() {
  // Root: publish the open round's outcome once all n reports are in.
  if (open_.reporters < g_.num_nodes()) return;
  const Feedback kind = open_.offers == 0   ? Feedback::kSilence
                        : open_.offers == 1 ? Feedback::kSuccess
                                            : Feedback::kCollision;
  Message out;
  out.origin = tree_.root;
  out.payload = encode_outcome(kind, open_.last_node, open_.last_frame);
  const std::uint32_t seq = dist_[tree_.root]->root_enqueue(out);
  // The root observes its own outcome immediately.
  node_outcomes_[tree_.root].push_back(decode_outcome(seq, out.payload));
  dirty_.push_back(tree_.root);
  open_ = {};
}

std::vector<VirtualEthernet::RoundOutcome> VirtualEthernet::run_rounds(
    std::uint32_t rounds, SlotTime max_slots, HaltFn halt) {
  require(policy_ != nullptr, "VirtualEthernet: set_policy first");
  require(rounds >= 1, "VirtualEthernet: rounds >= 1");
  const NodeId n = g_.num_nodes();
  const std::vector<RoundOutcome>& stream = node_outcomes_[tree_.root];
  std::uint32_t limit = rounds;
  NodeId done = 0;  // nodes that observed `limit` outcomes
  std::size_t judged = static_cast<std::size_t>(-1);  // stream size halt saw
  StallWatchdog never(0, 0);
  for (NodeId v = 0; v < n; ++v) start_round(v, 0);

  // Between two arrivals (a report the root takes, an outcome a node
  // receives) nothing the loop reads changes, so the engine runs to the
  // next one. `halt` reads only the root's stream, so judging it when
  // that stream grew is the same as judging it after every slot.
  while (net_->now() < max_slots) {
    pump();
    if (halt && limit == rounds && stream.size() != judged) {
      judged = stream.size();
      if (halt(stream)) {
        // Stop launching new rounds; drain what is already in flight.
        limit = static_cast<std::uint32_t>(judged);
        done = static_cast<NodeId>(
            std::count_if(node_round_.begin(), node_round_.end(),
                          [limit](std::uint32_t r) { return r >= limit; }));
      }
    }
    // A node starts round r+1 the moment it observed outcome r, in node
    // order, as a walk over all nodes would.
    std::sort(dirty_.begin(), dirty_.end());
    for (const NodeId v : dirty_) {
      while (node_round_[v] < node_outcomes_[v].size()) {
        if (++node_round_[v] == limit) ++done;
        if (node_round_[v] < limit) start_round(v, node_round_[v]);
      }
    }
    dirty_.clear();
    if (done == n) break;
    // The root files its own report between slots. On a one-node bus that
    // report completes the round, which is published after one slot.
    const SlotTime end = open_.reporters == n ? net_->now() + 1 : max_slots;
    net_->run_until(arrivals_ + 1, [this] { return arrivals_; }, end, never);
  }
  return stream;
}

BackoffOutcome run_ethernet_backoff(
    const Graph& g, const BfsTree& tree,
    const std::vector<std::uint32_t>& backlog_per_node, std::uint64_t seed,
    std::uint32_t max_rounds, const FaultPlan& faults,
    const Observers& observers) {
  const NodeId n = g.num_nodes();
  require(backlog_per_node.size() == n,
          "run_ethernet_backoff: one backlog per node");
  Rng master(seed);

  VirtualEthernet::Config cfg = VirtualEthernet::Config::for_graph(g);
  static_cast<Observers&>(cfg) = observers;
  cfg.faults = faults;
  VirtualEthernet bus(g, tree, cfg, master.next());

  // Per-node MAC state, updated from the shared feedback each round.
  struct Mac {
    std::uint32_t remaining = 0;
    std::uint32_t backoff = 0;  // offer with probability 2^-backoff
    bool offered_last = false;
    Rng rng{0};
  };
  std::vector<Mac> mac(n);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    mac[v].remaining = backlog_per_node[v];
    mac[v].rng = master.split(v);
    total += backlog_per_node[v];
  }

  BackoffOutcome out;
  // The policy runs the MAC: it is invoked exactly once per (node, round),
  // in round order, because the bus starts a node's round r+1 only after
  // it observed outcome r. Feedback is read from the node's own outcome
  // stream — identical at all nodes.
  bus.set_policy([&](NodeId v, std::uint32_t round) -> std::optional<std::uint32_t> {
    Mac& m = mac[v];
    if (round > 0) {
      const auto& fb = bus.outcomes_at(v)[round - 1];
      if (m.offered_last) {
        if (fb.kind == VirtualEthernet::Feedback::kSuccess &&
            fb.winner == v) {
          --m.remaining;
          m.backoff = 0;
        } else if (fb.kind == VirtualEthernet::Feedback::kCollision) {
          m.backoff = std::min(m.backoff + 1, 6u);  // binary exponential
        }
      } else if (fb.kind == VirtualEthernet::Feedback::kSilence &&
                 m.backoff > 0) {
        // Idle feedback means the channel is under-used: creep back up
        // (the standard backoff-decrease refinement).
        --m.backoff;
      }
    }
    m.offered_last = false;
    if (m.remaining == 0) return std::nullopt;
    if (m.backoff > 0 && !m.rng.bernoulli(1.0 / double(1u << m.backoff)))
      return std::nullopt;
    m.offered_last = true;
    return (v << 8) | (m.remaining & 0xFF);  // frame id
  });

  const auto outcomes = bus.run_rounds(
      max_rounds, 200'000'000,
      [total](const std::vector<VirtualEthernet::RoundOutcome>& so_far) {
        std::uint64_t succ = 0;
        for (const auto& o : so_far)
          if (o.kind == VirtualEthernet::Feedback::kSuccess) ++succ;
        return succ >= total;
      });
  // The halt ends the stream at the round that delivered the last frame.
  for (const auto& o : outcomes)
    if (o.kind == VirtualEthernet::Feedback::kSuccess)
      out.delivered_frames.push_back(o.frame);
  out.completed = out.delivered_frames.size() == total;
  out.rounds_used = static_cast<std::uint32_t>(outcomes.size());
  out.slots = bus.now();
  out.net = bus.bus_metrics();
  if (observers.profiler != nullptr) {
    observers.profiler->count("ethernet.slots", out.slots);
    observers.profiler->count("ethernet.polls", bus.engine_polls());
  }
  return out;
}

}  // namespace radiomc

#pragma once

// The k-broadcast service (§6): "to broadcast a message a node first sends
// the message to the root using the collection subprotocol. Then the
// message is sent to all the nodes of the network using the distribution
// subprotocol." Both run concurrently — collection on the up channel,
// distribution on the down channel (§1.4) — or interleaved odd/even on a
// single channel (the multiplexing alternative, used by ablation E12).
//
// The collection channel also carries the distribution control plane:
// gap NACKs and window checkpoint acknowledgements climb to the root like
// any other collected message.

#include <cstdint>
#include <memory>
#include <vector>

#include "protocols/collection.h"
#include "protocols/distribution.h"
#include "protocols/tree.h"
// BroadcastService is a driver-in-a-header: it owns the RadioNetwork the
// collection + distribution stacks run on (its stations stay model-pure).
// radiomc-lint: allow(layer-dag) reason=service owns the engine it hosts stations on
#include "radio/network.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

/// The observers (radio/trace.h) serve run_k_broadcast: one span for the hub
/// and the profiler ("distribution.k_broadcast"), resend/idle-rebroadcast
/// counters in the hub, slot/resend profiler counters. The observers inside
/// `collection` are ignored: the service runs one network.
struct BroadcastServiceConfig : Observers {
  CollectionConfig collection;
  DistributionConfig distribution;
  /// Separate channels (paper's default) or odd/even time multiplexing.
  enum class ChannelMode { kSeparate, kTimeDivision } mode =
      ChannelMode::kSeparate;
  /// Physical-layer knobs (e.g. the Remark-3 capture model); the channel
  /// count is set by `mode` and any value here is overwritten.
  RadioNetwork::Config engine;

  /// Fault injection (src/faults/), compiled by the service against the
  /// graph and a stream split off the seed. The per-protocol plans inside
  /// `collection` / `distribution` are ignored here — the service runs one
  /// network, so it carries one schedule.
  FaultPlan faults;
  /// Progress watchdog for run_until_delivered: when > 0 and the minimum
  /// delivered prefix has not advanced for this many slots, stop with
  /// RunStatus::kDegraded. 0 = off.
  SlotTime stall_slots = 0;

  static BroadcastServiceConfig for_graph(const Graph& g) {
    BroadcastServiceConfig c;
    c.collection = CollectionConfig::for_graph(g);
    c.distribution = DistributionConfig::for_graph(g);
    return c;
  }
};

/// Owns the full per-node protocol stack and the network; the driver calls
/// `broadcast` to originate messages and `run`/`run_until_delivered` to
/// advance time.
class BroadcastService {
 public:
  BroadcastService(const Graph& g, const BfsTree& tree,
                   BroadcastServiceConfig cfg, std::uint64_t seed);

  /// Originates a broadcast of `payload` at node `src` (enters the
  /// collection buffer; at the root it is queued for distribution
  /// directly, as the root is its own collection sink).
  void broadcast(NodeId src, std::uint64_t payload);

  /// Lets `count` slots pass (RadioNetwork::run).
  void run(SlotTime count);
  /// Runs until every node has delivered (in order) all broadcasts
  /// originated so far, or `max_slots` pass, or the configured stall
  /// watchdog fires. Returns success; `status()` has the structured
  /// outcome afterwards.
  bool run_until_delivered(SlotTime max_slots);
  RunStatus status() const noexcept { return status_; }
  /// The service's fault schedule (disabled when faults are off).
  const FaultSchedule& faults() const noexcept { return *faults_; }

  SlotTime now() const;
  std::uint64_t originated() const noexcept { return originated_; }
  /// Smallest in-order delivered prefix over all non-root nodes.
  std::uint32_t min_delivered_prefix() const;
  const DistributionStation& distribution(NodeId v) const {
    return *dist_[v];
  }
  /// Mutable access, e.g. to install application delivery handlers.
  DistributionStation& distribution_mutable(NodeId v) { return *dist_[v]; }
  const CollectionStation& collection(NodeId v) const { return *coll_[v]; }
  const NetMetrics& metrics() const;
  /// Engine scheduling counters (station polls / wake events): what
  /// sleeping saves.
  const EngineStats& engine_stats() const { return net_->engine_stats(); }

 private:
  const Graph& g_;
  const BfsTree& tree_;
  BroadcastServiceConfig cfg_;
  std::vector<std::unique_ptr<CollectionStation>> coll_;
  std::vector<std::unique_ptr<DistributionStation>> dist_;
  std::vector<std::unique_ptr<Station>> muxes_;
  std::unique_ptr<RadioNetwork> net_;
  std::unique_ptr<FaultSchedule> faults_;
  std::vector<std::uint32_t> next_up_seq_;
  std::uint64_t originated_ = 0;
  RunStatus status_ = RunStatus::kOk;
};

/// Driver for experiment E6: k broadcasts from random sources, all present
/// at slot 0; measures time until every node delivered all of them.
struct KBroadcastOutcome {
  bool completed = false;
  /// kOk iff completed; kDegraded when the stall watchdog fired;
  /// kFailed when max_slots ran out.
  RunStatus status = RunStatus::kOk;
  SlotTime slots = 0;
  std::uint64_t root_resends = 0;
  /// Broadcasts delivered to EVERY node (the service's min prefix); on a
  /// degraded run this is the partial-progress measure (>= k iff
  /// completed). Under crash faults it can exceed k: a station frozen
  /// mid-retransmission can resurrect a stale copy whose mod-4W wire
  /// sequence aliases to a phantom index past the frontier. The prefix
  /// property still guarantees every real message below it was delivered —
  /// exactly-once weakens to at-least-once, completeness survives.
  std::uint32_t delivered_prefix = 0;
  /// Engine on_slot invocations — what sleeping saves.
  std::uint64_t engine_polls = 0;
};
KBroadcastOutcome run_k_broadcast(const Graph& g, const BfsTree& tree,
                                  const std::vector<NodeId>& sources,
                                  BroadcastServiceConfig cfg,
                                  std::uint64_t seed,
                                  SlotTime max_slots = 200'000'000);

}  // namespace radiomc

#pragma once

// Virtual shared bus with collision detection (§1.3):
//   "In [4] Bar-Yehuda et al. ... show how to detect conflicts and
//    simulate a single hop network. Thus they show how to use protocols
//    designed for the ETHERNET in a multi-hop network."
//
// This module provides that capability on top of this paper's own
// machinery. The emulation proceeds in *rounds*, each round emulating one
// slot of a single-hop channel with ternary feedback:
//
//  1. every station reports to the root over the collection channel —
//     either the frame it offers this round or an explicit "idle" report;
//  2. when the root holds all n reports (the first copy of each; a resent
//     report is dropped) it classifies the round (silence / success /
//     collision — i.e. 0, 1, or >= 2 offered frames) and broadcasts the
//     outcome over the distribution channel;
//  3. a station starts round r+1 when it delivers outcome r, so all
//     stations observe the identical feedback sequence.
//
// The emulation is deterministic and loss-free (it inherits the §3/§6
// reliability of the underlying channels); its cost is O((n + D) log Delta)
// slots per round — the price of exact per-round feedback. [4] achieves
// cheaper emulation with probabilistic feedback; see DESIGN.md.
//
// `EthernetBackoff` implements the classic slotted-ALOHA/Ethernet binary
// exponential backoff on top of the bus, demonstrating §1.3's point that
// single-hop MAC protocols run unchanged over a multi-hop network.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "protocols/collection.h"
#include "protocols/distribution.h"
#include "protocols/tree.h"
// The emulation layer (§1.3) is itself the "wire": it owns the
// RadioNetwork that plays the single-hop ethernet segment.
// radiomc-lint: allow(layer-dag) reason=emulation owns the virtual bus engine
#include "radio/network.h"
#include "radio/trace.h"
#include "support/rng.h"

namespace radiomc {

class VirtualEthernet {
 public:
  /// The observers' trace sink and slot hook go on the bus's network.
  struct Config : Observers {
    CollectionConfig collection;
    DistributionConfig distribution;
    /// Faults injected into the virtual bus's own radio layer. The §3/§6
    /// reliability of the underlying channels absorbs jam/drop noise (the
    /// bus stays exact, just slower). Crash plans without a recover_rate
    /// can stall a round forever — the root waits for all n reports — so
    /// pair crash_rate with recovery, or bound the run with max_slots.
    /// All-zero (the default) is byte-identical to the pre-fault-aware
    /// bus: the fault seed is only drawn when the plan is enabled.
    FaultPlan faults;

    static Config for_graph(const Graph& g) {
      Config c;
      c.collection = CollectionConfig::for_graph(g);
      c.distribution = DistributionConfig::for_graph(g);
      return c;
    }
  };

  enum class Feedback : std::uint8_t { kSilence, kSuccess, kCollision };

  struct RoundOutcome {
    std::uint32_t round = 0;
    Feedback kind = Feedback::kSilence;
    NodeId winner = kNoNode;       ///< valid for kSuccess
    std::uint32_t frame = 0;       ///< valid for kSuccess (31-bit payload)
  };

  /// A station's offer for a round: nullopt = stay idle.
  using Policy =
      std::function<std::optional<std::uint32_t>(NodeId node,
                                                 std::uint32_t round)>;

  VirtualEthernet(const Graph& g, const BfsTree& tree, Config cfg,
                  std::uint64_t seed);

  void set_policy(Policy p) { policy_ = std::move(p); }

  /// Runs until every station has delivered `rounds` outcomes (or
  /// max_slots elapse). If `halt` is set, it is evaluated on the root's
  /// outcome stream each time that stream grows (so it must be a pure
  /// function of it); once true, no further rounds start and the run
  /// drains so every station ends with the same stream. Returns the
  /// outcome log (identical at every station; verified by the tests).
  using HaltFn = std::function<bool(const std::vector<RoundOutcome>&)>;
  std::vector<RoundOutcome> run_rounds(std::uint32_t rounds,
                                       SlotTime max_slots = 200'000'000,
                                       HaltFn halt = nullptr);

  SlotTime now() const { return net_->now(); }
  /// The outcome sequence as delivered at a given node (for tests).
  const std::vector<RoundOutcome>& outcomes_at(NodeId v) const {
    return node_outcomes_[v];
  }
  /// Radio-layer counters of the virtual bus (fault_jams / fault_drops
  /// show how much noise the emulation absorbed).
  const NetMetrics& bus_metrics() const { return net_->metrics(); }
  /// Station polls the bus's engine spent so far.
  std::uint64_t engine_polls() const {
    return net_->engine_stats().station_polls;
  }

 private:
  void start_round(NodeId v, std::uint32_t round);
  void take_report(NodeId v, std::uint32_t round, std::uint64_t payload);
  void pump();

  const Graph& g_;
  const BfsTree& tree_;
  Config cfg_;
  Policy policy_;
  std::vector<std::unique_ptr<CollectionStation>> coll_;
  std::vector<std::unique_ptr<DistributionStation>> dist_;
  std::vector<std::unique_ptr<Station>> muxes_;
  std::unique_ptr<FaultSchedule> faults_;  ///< disabled when the plan is off
  std::unique_ptr<RadioNetwork> net_;

  std::vector<std::uint32_t> node_round_;       ///< rounds observed so far
  std::vector<std::vector<RoundOutcome>> node_outcomes_;
  std::uint64_t arrivals_ = 0;  ///< reports taken + outcomes received
  std::vector<NodeId> dirty_;   ///< nodes whose outcome stream grew

  // Root bookkeeping. A node reports round r+1 only after it received
  // outcome r, so only one round is open: the one after the last
  // published. The root counts each node's first copy of its report.
  std::vector<std::uint32_t> reported_;  ///< rounds taken from each node
  struct {
    NodeId reporters = 0;       ///< distinct reports
    std::uint32_t offers = 0;   ///< of which offers
    NodeId last_node = kNoNode;  ///< the last offer's node and frame
    std::uint32_t last_frame = 0;
  } open_;
};

/// Binary exponential backoff over the virtual bus: every station with a
/// backlog offers its next frame with probability 2^-backoff, doubling the
/// backoff on collision feedback and resetting it on success. Returns when
/// all backlogs drained (the bus carried every frame exactly once).
struct BackoffOutcome {
  bool completed = false;
  std::uint32_t rounds_used = 0;
  SlotTime slots = 0;
  std::vector<std::uint32_t> delivered_frames;  ///< in bus order
  NetMetrics net;  ///< the virtual bus's radio-layer counters
};
/// `faults` is injected into the bus's radio layer (see
/// VirtualEthernet::Config::faults); the default disabled plan leaves the
/// run byte-identical to the historical fault-free signature.
/// `observers` watch the bus (VirtualEthernet::Config), and the profiler
/// gets the "ethernet.slots" and "ethernet.polls" counters.
BackoffOutcome run_ethernet_backoff(const Graph& g, const BfsTree& tree,
                                    const std::vector<std::uint32_t>& backlog_per_node,
                                    std::uint64_t seed,
                                    std::uint32_t max_rounds = 4096,
                                    const FaultPlan& faults = {},
                                    const Observers& observers = {});

}  // namespace radiomc

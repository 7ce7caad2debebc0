#pragma once

// The distribution protocol (§6): pipelined broadcast down the BFS tree.
//
// Time is divided into *superphases* of 2 ceil(log2 n) Decay invocations
// (4 log Delta log n slots; x3 with the §2.2 gating folded in). In each
// superphase the root sends its current outgoing message and every other
// node forwards the message it received during the *previous* superphase —
// so message t flows at level i during superphase t + i, one level per
// superphase, and a new broadcast leaves the root every O(log Delta log n)
// slots. Mod-3 gating guarantees a node can only hear level i-1 while
// level i-1 transmits, and since all of level i-1 forwards the same
// message, any reception is the right message; a superphase of 2 log n
// invocations makes the per-hop miss probability <= 1/n^2.
//
// Reliability (§6, second half): the root numbers messages consecutively;
// a node that observes a gap sends a NACK up the tree (via the concurrent
// collection channel) and the root resends. With a finite window W the
// sequence numbers are carried mod 4W on the wire, the root never has more
// than 2W messages beyond the last fully-acknowledged checkpoint in
// flight, and every node acknowledges each completed window of W messages
// — the bounded-numbering scheme the paper sketches with "numbered mod
// 3n^2" plus an acknowledged checkpoint every n^2 messages (we use 4W/2W/W
// for a crisper uniqueness argument; see DESIGN.md).
//
// Every DistributionStation sleeps (radio/waker.h) on timed duty wakes. At
// the end of each slot it is polled in, a non-root station that holds a
// message or runs a NACK retry timer arms its next superphase start (the
// register shift and the retries), and while forwarding also its next
// transmit opportunity (the level's next data slot while this phase's
// Decay is alive, else the first one of the next phase), whichever comes
// first. With empty registers and no NACK timer it sleeps until the
// reception that fills its register, which arms the next superphase
// start; other receptions leave it asleep. The root arms every
// superphase start, so its boundary is never late (a late one could take
// a mid-superphase root_enqueue() a superphase early). Between boundaries
// it sleeps like any forwarder: enqueues, resend requests and checkpoint
// acks need no wake, since only the next boundary reads them.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "protocols/decay.h"
#include "protocols/tree.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"
#include "support/util.h"

namespace radiomc {

struct DistributionConfig {
  std::uint32_t decay_len = 2;             ///< 2 ceil(log2 Delta)
  std::uint32_t phases_per_superphase = 4; ///< 2 ceil(log2 n)
  bool mod3_gating = true;
  /// Checkpoint window W; 0 disables wraparound/checkpointing (sequence
  /// numbers grow unboundedly — fine for finite experiments).
  std::uint32_t window = 0;
  /// A node repeats a NACK for a still-missing message every this many
  /// superphases, at least 1 (loss of the NACK itself is possible only
  /// while the collection channel is still climbing; repetition makes
  /// repair certain).
  std::uint32_t nack_retry_superphases = 8;

  /// Sequence-number epoching for the windowed wire format. The mod-4W
  /// decode of abs_of is sound only under the send-window/drain invariant;
  /// a *stale* copy that outlives it (a crashed node resurrecting with an
  /// ancient pipeline register) carries a residue that can alias to a
  /// phantom absolute index within [frontier - 2W, frontier + 2W) and be
  /// delivered as a message the root never sent. With epoching on, the
  /// transmitter packs the 16-bit root era (abs / 4W mod 2^16) into the
  /// aux field's high bits next to the hop level in the low bits; a
  /// receiver re-derives the era of its decode and drops any copy whose
  /// tag disagrees — the stale copy's era is the old one, the phantom
  /// index's era is current, so aliasing across a wrap is detected. Off
  /// reproduces the legacy wire format bit-for-bit (the regression test
  /// exhibits the phantom prefix on it). No effect when window == 0 (era
  /// is identically 0 and aux carries exactly the level).
  bool epoch_tags = true;

  static DistributionConfig for_graph(const Graph& g) {
    DistributionConfig c;
    c.decay_len = decay_length(g.max_degree());
    const std::uint32_t ln = ceil_log2(g.num_nodes() < 2 ? 2 : g.num_nodes());
    c.phases_per_superphase = 2 * (ln < 1 ? 1 : ln);
    return c;
  }
};

/// Driver-owned count of stations per delivered prefix, and its minimum.
/// A station joins at prefix 0 and reports each step of its prefix; since
/// prefixes only grow, the minimum only moves up, and keeping it costs
/// amortized O(1) per step.
class PrefixTally {
 public:
  /// A station joins at prefix 0.
  void join() {
    bump(0);
    ++members_;
  }
  /// A member's prefix grew from `from` to `from + 1`.
  void advance(std::uint32_t from) {
    --count_[from];
    bump(from + 1);
    while (count_[min_] == 0) ++min_;
  }
  /// Smallest prefix over the members; UINT32_MAX with none.
  std::uint32_t min() const noexcept {
    return members_ == 0 ? static_cast<std::uint32_t>(-1) : min_;
  }

 private:
  void bump(std::uint32_t p) {
    if (p >= count_.size()) count_.resize(p + 1, 0);
    ++count_[p];
  }

  std::vector<std::uint64_t> count_;  ///< members per prefix
  std::uint32_t min_ = 0;
  std::uint64_t members_ = 0;
};

class DistributionStation final : public SubStation {
 public:
  DistributionStation(NodeId me, const BfsTree& tree, DistributionConfig cfg,
                      Rng rng);

  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  /// Root only: queues an application message for broadcast; returns its
  /// distribution sequence number.
  std::uint32_t root_enqueue(const Message& app);
  /// Root only: a NACK for absolute sequence `seq` arrived.
  void root_request_resend(std::uint32_t seq);
  /// Root only: node `who` acknowledged checkpoint index `cp` (it delivered
  /// every message with seq < cp * W).
  void root_checkpoint_ack(NodeId who, std::uint32_t cp);

  /// Non-root: control-plane hooks, called when this node wants to NACK a
  /// missing sequence number / acknowledge a checkpoint. The broadcast
  /// service routes these up the collection channel.
  void set_control(std::function<void(std::uint32_t)> nack,
                   std::function<void(std::uint32_t)> checkpoint) {
    nack_fn_ = std::move(nack);
    checkpoint_fn_ = std::move(checkpoint);
  }

  /// Number of messages delivered in order to the application.
  std::uint32_t delivered_prefix() const noexcept { return next_expected_; }
  /// Joins `tally` and reports every later step of delivered_prefix() to
  /// it. Call before the first delivery; the tally must outlive the
  /// station.
  void count_prefix_into(PrefixTally& tally) {
    require(next_expected_ == 0,
            "distribution: join a prefix tally before the first delivery");
    tally.join();
    prefix_tally_ = &tally;
  }
  /// (slot, absolute seq) per in-order application delivery.
  const std::vector<std::pair<SlotTime, std::uint32_t>>& delivery_log()
      const noexcept {
    return delivery_log_;
  }
  /// Application hook: called once per message, in order, with the full
  /// message (absolute seq). Set before the run.
  void set_delivery_handler(
      std::function<void(SlotTime, const Message&)> h) {
    delivery_handler_ = std::move(h);
  }
  std::uint32_t root_sent_fresh() const noexcept { return next_seq_; }
  std::uint64_t root_resends() const noexcept { return resend_count_; }
  std::uint64_t root_idle_rebroadcasts() const noexcept {
    return idle_rebroadcasts_;
  }

  std::uint64_t slots_per_superphase() const noexcept {
    return superphase_.divisor();
  }

 private:
  void on_superphase_boundary(std::uint64_t sp);
  /// At the end of slot `t` (superphase `sp`): wakes or arms the station
  /// for the next slot in which it owes action.
  void arm_duty(SlotTime t, std::uint64_t sp);
  std::uint32_t wire_of(std::uint32_t abs) const noexcept;
  std::optional<std::uint32_t> abs_of(std::uint32_t wire) const noexcept;
  /// 16-bit root era of an absolute sequence number: abs / 4W mod 2^16
  /// (identically 0 when window == 0).
  std::uint32_t era_of(std::uint32_t abs) const noexcept;
  void note_received(SlotTime t, std::uint32_t abs, const Message& stored);

  NodeId me_;
  std::uint32_t level_;
  bool is_root_;
  NodeId n_;
  std::uint32_t depth_;
  DistributionConfig cfg_;
  PhaseClock clock_;
  FixedDivisor superphase_;  ///< slots_per_superphase()
  Rng rng_;

  Waker* waker_ = nullptr;  ///< set by on_attach

  DecayProcess decay_;
  std::uint64_t last_superphase_ = static_cast<std::uint64_t>(-1);

  // Pipeline registers.
  std::optional<Message> forwarding_;     ///< sent during this superphase
  std::optional<Message> received_sp_;    ///< first reception this superphase
  /// Superphase in which received_sp_ was captured. A sleeping station
  /// can fire a boundary *late* (first poll after a wake); the shift must
  /// then promote only a reception made before the boundary's superphase —
  /// an always-active station would have shifted an empty register at the
  /// superphase start and captured this reception for the *next* shift.
  std::uint64_t received_sp_at_ = 0;

  // Root sender state.
  std::deque<Message> pending_;           ///< fresh, seq already assigned
  std::deque<std::uint32_t> resend_queue_;
  std::set<std::uint32_t> resend_queued_;
  std::map<std::uint32_t, Message> history_;  ///< seq -> message (window-bounded)
  std::uint32_t next_seq_ = 0;
  std::uint32_t sent_hi_ = 0;  ///< seqs < sent_hi_ have actually been sent
  std::uint32_t base_ = 0;  ///< all nodes delivered every seq < base_
  std::map<std::uint32_t, std::set<NodeId>> checkpoint_acks_;
  /// cp index -> last superphase in which a seq of that window was sent;
  /// used by the drain guard before advancing base_.
  std::map<std::uint32_t, std::uint64_t> last_sent_in_cp_;
  std::uint64_t resend_count_ = 0;
  std::uint64_t idle_rebroadcasts_ = 0;

  // Receiver state.
  std::uint32_t next_expected_ = 0;
  PrefixTally* prefix_tally_ = nullptr;  ///< set by count_prefix_into
  std::map<std::uint32_t, Message> out_of_order_;
  std::map<std::uint32_t, std::uint64_t> nack_last_sp_;  ///< missing seq -> sp
  std::vector<std::pair<SlotTime, std::uint32_t>> delivery_log_;
  std::function<void(SlotTime, const Message&)> delivery_handler_;
  std::function<void(std::uint32_t)> nack_fn_;
  std::function<void(std::uint32_t)> checkpoint_fn_;
  std::uint32_t last_checkpoint_sent_ = 0;
};

}  // namespace radiomc

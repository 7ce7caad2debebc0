#include "protocols/distribution.h"

#include <algorithm>

namespace radiomc {

namespace {
PhaseClock make_clock(const DistributionConfig& cfg) {
  SlotStructure s;
  s.decay_len = cfg.decay_len;
  s.ack_subslots = false;  // §6: broadcast payloads have many destinations
  s.mod3_gating = cfg.mod3_gating;
  return PhaseClock(s);
}
}  // namespace

DistributionStation::DistributionStation(NodeId me, const BfsTree& tree,
                                         DistributionConfig cfg, Rng rng)
    : me_(me),
      level_(tree.level[me]),
      is_root_(me == tree.root),
      n_(tree.num_nodes()),
      depth_(tree.depth),
      cfg_(cfg),
      clock_(make_clock(cfg)),
      superphase_(std::uint64_t{cfg.phases_per_superphase} *
                  clock_.slots_per_phase()),
      rng_(rng),
      decay_(cfg.decay_len) {
  // With 0 a late boundary would retry the NACKs its own superphase just
  // sent, in whatever slot the sleeping station was next polled.
  require(cfg_.nack_retry_superphases >= 1,
          "distribution: nack_retry_superphases must be >= 1");
  // The era shares the 32-bit aux field with the hop level (16 bits each).
  require(!cfg_.epoch_tags || cfg_.window == 0 || tree.depth < 0x10000,
          "distribution: epoch tags pack the level into 16 bits; depth must "
          "be < 65536");
}

void DistributionStation::on_attach(Waker& w) {
  waker_ = &w;
}

std::uint32_t DistributionStation::wire_of(std::uint32_t abs) const noexcept {
  return cfg_.window == 0 ? abs : abs % (4 * cfg_.window);
}

std::uint32_t DistributionStation::era_of(std::uint32_t abs) const noexcept {
  return cfg_.window == 0 ? 0 : (abs / (4 * cfg_.window)) & 0xFFFFu;
}

std::optional<std::uint32_t> DistributionStation::abs_of(
    std::uint32_t wire) const noexcept {
  if (cfg_.window == 0) return wire;
  // Uniqueness: the root only sends fresh seq < base + 2W and never resends
  // below base, and base only advances after every copy numbered below the
  // new base has drained out of the pipeline (the depth guard in
  // on_superphase_boundary). Hence every copy a node can hear satisfies
  // a in [base, base+2W), while its own frontier f is in [base, base+2W]
  // (base never passes an undelivered message). So a - f in [-2W, 2W),
  // and the residue mod 4W identifies `a` within [f-2W, f+2W).
  const std::int64_t mod = 4LL * cfg_.window;
  const std::int64_t f = next_expected_;
  const std::int64_t lo = f - 2LL * cfg_.window;
  const std::int64_t a = lo + ((wire - lo) % mod + mod) % mod;
  if (a < 0) return std::nullopt;  // would predate message 0
  return static_cast<std::uint32_t>(a);
}

std::uint32_t DistributionStation::root_enqueue(const Message& app) {
  require(is_root_, "root_enqueue on a non-root station");
  Message m = app;
  m.kind = MsgKind::kBcastData;
  m.dest = kAllNodes;
  m.seq = next_seq_++;
  pending_.push_back(m);
  history_.emplace(m.seq, m);
  return m.seq;
}

void DistributionStation::root_request_resend(std::uint32_t seq) {
  require(is_root_, "root_request_resend on a non-root station");
  // Only sequence numbers actually transmitted can be legitimately missing;
  // anything else is a spurious request (e.g. a decode gone stale).
  if (seq >= sent_hi_ || seq < base_) return;
  if (resend_queued_.insert(seq).second) resend_queue_.push_back(seq);
}

void DistributionStation::root_checkpoint_ack(NodeId who, std::uint32_t cp) {
  require(is_root_, "root_checkpoint_ack on a non-root station");
  if (cfg_.window == 0 || who == me_) return;
  checkpoint_acks_[cp].insert(who);
}

void DistributionStation::on_superphase_boundary(std::uint64_t sp) {
  if (!is_root_) {
    // Store-and-forward pipeline register shift (§6: forward during this
    // superphase what arrived during the previous one). The guard is
    // vacuous for an always-active station — its boundary fires at every
    // superphase start, before any reception of that superphase, so a
    // captured register is always from sp-1. A sleeping station firing a
    // late boundary must not promote a reception made in the boundary's
    // own superphase; it stays in received_sp_ for the next shift, exactly
    // where the on-time schedule would have put it.
    if (received_sp_ && received_sp_at_ < sp) {
      forwarding_ = received_sp_;
      received_sp_.reset();
    } else {
      forwarding_.reset();
    }

    // Re-issue NACKs for messages still missing after the retry interval.
    if (nack_fn_) {
      for (auto& [seq, last] : nack_last_sp_) {
        if (sp - last >= cfg_.nack_retry_superphases) {
          last = sp;
          nack_fn_(seq);
        }
      }
    }
    return;
  }

  // Root. First advance the checkpoint base where possible: checkpoint cp
  // (= "every node delivered all seq < cp*W") requires acks from the n-1
  // other nodes AND that no copy numbered below cp*W can still be in the
  // pipeline — a copy sent at superphase T leaves the deepest level by
  // T + depth, hence the drain guard.
  if (cfg_.window != 0) {
    for (;;) {
      const std::uint32_t cp = base_ / cfg_.window + 1;
      const auto it = checkpoint_acks_.find(cp);
      if (it == checkpoint_acks_.end() || it->second.size() < n_ - 1) break;
      const auto sent = last_sent_in_cp_.find(cp - 1);
      if (sent != last_sent_in_cp_.end() && sp <= sent->second + depth_ + 2)
        break;  // copies below cp*W might still be draining
      base_ = cp * cfg_.window;
      history_.erase(history_.begin(), history_.lower_bound(base_));
      last_sent_in_cp_.erase(cp - 1);
      checkpoint_acks_.erase(it);
    }
  }

  // Choose the message for this superphase: repairs first, then fresh
  // traffic gated by the send window.
  forwarding_.reset();
  while (!resend_queue_.empty()) {
    const std::uint32_t seq = resend_queue_.front();
    resend_queue_.pop_front();
    resend_queued_.erase(seq);
    if (seq < base_) continue;  // everyone has it; never re-inject
    const auto it = history_.find(seq);
    if (it != history_.end()) {
      forwarding_ = it->second;
      ++resend_count_;
      break;
    }
  }
  if (!forwarding_ && !pending_.empty()) {
    const Message& head = pending_.front();
    if (cfg_.window == 0 || head.seq < base_ + 2 * cfg_.window) {
      forwarding_ = head;
      sent_hi_ = head.seq + 1;  // before pop_front invalidates `head`
      pending_.pop_front();
    }
  }
  // Tail-loss repair: a node that missed the *last* message never sees a
  // later sequence number, so gap NACKs alone cannot heal it (the paper
  // closes this with the root's checkpoint timeout-resend). An idle root
  // therefore keeps re-forwarding the newest message it actually sent;
  // receivers that have it drop the duplicate, receivers that miss it — or
  // detect a gap below it — recover. (Never the newest *enqueued* message:
  // transmitting a sequence number ahead of the send window would break
  // the mod-4W decode invariant.)
  if (!forwarding_ && sent_hi_ > 0) {
    const auto it = history_.find(sent_hi_ - 1);
    if (it != history_.end()) {
      forwarding_ = it->second;
      ++idle_rebroadcasts_;
    }
  }
  if (forwarding_ && cfg_.window != 0) {
    const std::uint32_t cp = forwarding_->seq / cfg_.window;
    last_sent_in_cp_[cp] = sp;
  }
}

std::optional<Message> DistributionStation::poll(SlotTime t) {
  const std::uint64_t sp = superphase_.div(t);
  if (sp != last_superphase_) {
    last_superphase_ = sp;
    on_superphase_boundary(sp);
  }

  const PhaseClock::SlotInfo info = clock_.decode(t);
  if (!forwarding_ || !clock_.level_may_send_data(info, level_) ||
      !decay_.transmits_in(info.phase))
    return std::nullopt;

  Message m = *forwarding_;
  m.sender = me_;
  // Receivers check the hop direction against the low bits; with epoching
  // the high bits carry the root era of the *absolute* seq (forwarding_
  // always stores absolute numbering), stamped before the wire wrap below.
  m.aux = cfg_.epoch_tags ? (level_ | (era_of(m.seq) << 16)) : level_;
  m.seq = wire_of(m.seq);  // window-bounded wire numbering
  return m;
}

void DistributionStation::arm_duty(SlotTime t, std::uint64_t sp) {
  // The root owes action at every superphase start: its boundary picks
  // the superphase's message from what root_enqueue(), resend requests and
  // checkpoint acks left since the last one, so it arms every start and
  // its boundary never fires late. A non-root owes action there while a
  // register holds a message (the shift) or a NACK retry timer runs (the
  // retry). Both owe, while forwarding, their next transmit opportunity.
  // With nothing owed, every skipped poll of a non-root is a provable
  // no-op: it sleeps until a reception fills its register.
  if (!is_root_ && !forwarding_ && !received_sp_ && nack_last_sp_.empty())
    return;
  SlotTime next = (sp + 1) * slots_per_superphase();
  if (forwarding_)
    next = std::min(next, decay_.next_transmit_slot(clock_, t, level_));
  waker_->wake_at(next);
}

void DistributionStation::note_received(SlotTime t, std::uint32_t abs,
                                        const Message& stored) {
  if (abs < next_expected_ || out_of_order_.contains(abs)) return;  // dup

  out_of_order_.emplace(abs, stored);
  // NACK everything the gap reveals as missing (once; retried on a timer).
  const std::uint64_t sp = superphase_.div(t);
  for (std::uint32_t miss = next_expected_; miss < abs; ++miss) {
    if (!out_of_order_.contains(miss) && !nack_last_sp_.contains(miss)) {
      nack_last_sp_.emplace(miss, sp);
      if (nack_fn_) nack_fn_(miss);
    }
  }
  // In-order application delivery.
  for (auto it = out_of_order_.find(next_expected_);
       it != out_of_order_.end() && it->first == next_expected_;
       it = out_of_order_.find(next_expected_)) {
    nack_last_sp_.erase(next_expected_);
    delivery_log_.emplace_back(t, next_expected_);
    if (delivery_handler_) delivery_handler_(t, it->second);
    out_of_order_.erase(it);
    if (prefix_tally_ != nullptr) prefix_tally_->advance(next_expected_);
    ++next_expected_;
  }
  // Checkpoint acknowledgements (window mode); never skip an index, the
  // root counts acks per checkpoint.
  if (cfg_.window != 0 && checkpoint_fn_) {
    const std::uint32_t cp = next_expected_ / cfg_.window;
    while (last_checkpoint_sent_ < cp) checkpoint_fn_(++last_checkpoint_sent_);
  }
}

void DistributionStation::deliver(SlotTime t, const Message& m) {
  // Receptions reach sleeping stations. Only the one that fills the
  // register creates duty (the shift at the next superphase start); a NACK
  // it reveals goes out at once through the control hook, and its retry
  // comes due at a later superphase start, which that wake reaches first.
  if (m.kind != MsgKind::kBcastData) return;
  if (is_root_) return;
  // Accept only the level-(i-1) wave. Legacy wire format: aux is the bare
  // level; epoched: the level lives in the low 16 bits.
  const std::uint32_t hop = cfg_.epoch_tags ? (m.aux & 0xFFFFu) : m.aux;
  if (hop + 1 != level_) return;

  const std::optional<std::uint32_t> abs = abs_of(m.seq);
  if (!abs) return;
  // Era check: the decode placed the copy near our frontier; a stale copy
  // aliasing across a 4W wrap decodes to an index whose era disagrees with
  // the tag stamped at transmission — drop it instead of delivering a
  // phantom.
  if (cfg_.epoch_tags && era_of(*abs) != (m.aux >> 16)) return;

  Message stored = m;
  stored.seq = *abs;  // keep absolute numbering internally
  if (!received_sp_) {
    received_sp_ = stored;
    received_sp_at_ = superphase_.div(t);
    if (waker_ != nullptr)
      waker_->wake_at((received_sp_at_ + 1) * slots_per_superphase());
  }
  note_received(t, *abs, stored);
}

void DistributionStation::tick(SlotTime t) {
  decay_.end_slot(rng_);
  if (waker_ != nullptr) arm_duty(t, superphase_.div(t));
}

}  // namespace radiomc

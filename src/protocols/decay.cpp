#include "protocols/decay.h"

#include <memory>
#include <vector>

#include "radio/network.h"

namespace radiomc {

namespace {

/// Transmits one fixed message under Decay; everyone else listens.
class DecayTrialStation final : public Station {
 public:
  DecayTrialStation(std::uint32_t decay_len, bool transmits, Rng rng)
      : decay_(decay_len), rng_(rng), transmits_(transmits) {}

  // Everyone is polled in slot 0. A live Decay process transmits in every
  // slot, so it wakes for the next one while its coin keeps it alive;
  // once the coin kills it, or for pure listeners from the start, on_slot
  // returns no intent and on_slot_end is a no-op, so it sleeps for good.
  // No reception ever re-creates transmit desire.
  void on_attach(Waker& w) override { waker_ = &w; }

  // The whole trial is one phase: a transmitter's first poll begins its
  // invocation.
  void on_slot(SlotTime, std::span<std::optional<Message>> tx) override {
    if (!transmits_ || !decay_.transmits_in(0)) return;
    Message m;
    m.kind = MsgKind::kData;
    tx[0] = m;
  }

  void on_receive(SlotTime, ChannelId, const Message&) override {
    received_ = true;
  }

  void on_slot_end(SlotTime) override {
    decay_.end_slot(rng_);
    if (decay_.wants_transmit()) waker_->wake();
  }

  bool received() const noexcept { return received_; }

 private:
  DecayProcess decay_;
  Rng rng_;
  bool transmits_;
  bool received_ = false;
  Waker* waker_ = nullptr;
};

}  // namespace

bool decay_single_trial(const Graph& g, NodeId receiver,
                        const std::vector<NodeId>& transmitters,
                        std::uint32_t decay_len, Rng& rng) {
  require(receiver < g.num_nodes(), "decay_single_trial: receiver in range");
  std::vector<bool> sends(g.num_nodes(), false);
  for (NodeId t : transmitters) {
    require(t < g.num_nodes(), "decay_single_trial: transmitter in range");
    sends[t] = true;
  }
  require(!sends[receiver], "decay_single_trial: receiver cannot transmit");

  std::vector<std::unique_ptr<DecayTrialStation>> stations;
  stations.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    stations.push_back(std::make_unique<DecayTrialStation>(
        decay_len, sends[v], rng.split(v)));
  std::vector<Station*> ptrs;
  ptrs.reserve(stations.size());
  for (auto& s : stations) ptrs.push_back(s.get());

  RadioNetwork net(g);
  net.attach(std::move(ptrs));
  net.run(decay_len);
  return stations[receiver]->received();
}

}  // namespace radiomc

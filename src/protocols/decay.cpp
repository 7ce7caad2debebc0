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

  // Needs no Waker: a live Decay process transmits on every polled slot
  // (transmitting retains active-set membership), and once the coin kills
  // it — or for pure listeners from the start — on_slot returns no intent
  // and on_slot_end is a no-op, so skipping both changes nothing. No event
  // ever re-creates transmit desire, hence no wake().

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

  void on_slot_end(SlotTime) override { decay_.end_slot(rng_); }

  bool received() const noexcept { return received_; }

 private:
  DecayProcess decay_;
  Rng rng_;
  bool transmits_;
  bool received_ = false;
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

// F1 — Figure 1, the only figure in the paper: the four-node scenario in
// the proof of Theorem 3.1. Nodes u, v, u', v' with edges u-v, u'-v' and
// the cross edges u-v', u'-v. If v received u's message at slot t and u
// missed the acknowledgement, some v' != v must have acked at t+1 — but
// then v' received a message designated to it from some u'' != u at t,
// which makes two transmitting neighbors of v' at slot t: contradiction.
//
// This binary executes the scenario for every transmitter subset and
// prints the slot-by-slot outcome, demonstrating the contradiction is
// vacuous (the bad case never materializes) and the ack is deterministic.
//
// Fully deterministic (no RNG) and tiny; --jobs is accepted for harness
// uniformity only.

#include <cstdio>

#include "common.h"
#include "graph/graph.h"
#include "radio/network.h"
#include "radio/station.h"

#include <deque>
#include <memory>

using namespace radiomc;
using namespace radiomc::bench;

namespace {

class Probe final : public Station {
 public:
  NodeId me = 0;
  bool sends = false;
  NodeId designated = kNoNode;
  bool got_data = false;
  NodeId data_from = kNoNode;
  bool got_ack = false;

  void on_attach(Waker& w) override { waker_ = w; }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    waker_.wake();
    if (t == 0 && sends) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = me;
      m.dest = designated;
      tx[0] = m;
    } else if (t == 1 && got_data) {
      Message ack;
      ack.kind = MsgKind::kAck;
      ack.dest = data_from;
      tx[0] = ack;
    }
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    if (t == 0 && m.kind == MsgKind::kData && m.dest == me) {
      got_data = true;
      data_from = m.sender;
    } else if (t == 1 && m.kind == MsgKind::kAck && m.dest == me) {
      got_ack = true;
    }
  }

 private:
  Waker waker_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  RunTimer timer;
  std::printf("== F1: Figure 1 / Theorem 3.1 scenario ==\n");
  std::printf("   graph: u(0)-v(1), u'(2)-v'(3), cross edges u-v', u'-v\n\n");
  const Graph g(4, {{0, 1}, {2, 3}, {0, 3}, {2, 1}});
  const char* names[4] = {"u ", "v ", "u'", "v'"};

  JsonEmitter json("F1",
                   "Theorem 3.1: every received message is acknowledged "
                   "with certainty");
  bool theorem_holds = true;
  for (int mask = 0; mask < 4; ++mask) {
    std::deque<Probe> probes(4);
    for (NodeId i = 0; i < 4; ++i) probes[i].me = i;
    if (mask & 1) {
      probes[0].sends = true;
      probes[0].designated = 1;
    }
    if (mask & 2) {
      probes[2].sends = true;
      probes[2].designated = 3;
    }
    RadioNetwork net(g);
    net.attach({&probes[0], &probes[1], &probes[2], &probes[3]});
    net.run(2);

    std::printf("   transmitters:%s%s%s\n", (mask & 1) ? " u->v" : "",
                (mask & 2) ? " u'->v'" : "", mask == 0 ? " (none)" : "");
    bool mask_ok = true;
    for (NodeId i = 0; i < 4; ++i) {
      const Probe& p = probes[i];
      if (p.sends)
        std::printf("     %s sent to %s: %s\n", names[i],
                    names[p.designated],
                    probes[p.designated].got_data
                        ? (p.got_ack ? "received, ACKED (Thm 3.1)"
                                     : "received, ACK LOST (!!)")
                        : "collided (silence, no false ack)");
      if (p.sends && probes[p.designated].got_data && !p.got_ack) {
        theorem_holds = false;
        mask_ok = false;
      }
    }
    json.row({{"mask", mask},
              {"u_sends", (mask & 1) != 0},
              {"uprime_sends", (mask & 2) != 0},
              {"v_got_data", probes[1].got_data},
              {"vprime_got_data", probes[3].got_data},
              {"every_reception_acked", mask_ok}});
  }
  std::printf("\n   [%s] every received message was acknowledged with "
              "certainty\n",
              theorem_holds ? "SHAPE OK" : "MISMATCH");
  json.pass(theorem_holds);
  json.set_run_info(opt.jobs, timer.wall_ms(), timer.cpu_ms());
  return theorem_holds ? 0 : 1;
}

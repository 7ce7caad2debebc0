// Micro-benchmarks for the simulation substrate itself: how fast the
// engine, Decay, the queueing models and the RNG run. These are
// engineering numbers (simulator throughput), not paper claims — the
// output feeds the perf trajectory, not the reproduction tables.
//
// Self-measured on support/stopwatch.h (no external benchmark harness):
// each case is warmed up once, then run in doubling batches until it has
// accumulated --min-time-ms of wall time; the rate is total work over
// total measured time. Results land in BENCH_ENGINE.json (radiomc.bench/v1
// via bench::JsonEmitter) keyed by case/topology/workload/n so
// radiomc_perf can diff runs row-by-row against bench/BASELINE_ENGINE.json.
//
//   bench_micro [--min-time-ms N] [--jobs N]
//
// --min-time-ms defaults to 100; CI passes a reduced budget. --jobs is
// accepted for harness uniformity and recorded in the run info (the
// measurement loops themselves are single-threaded on purpose: rates from
// a contended pool would gate on scheduler noise, not engine speed).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/decay.h"
#include "protocols/tree.h"
#include "queueing/models.h"
#include "queueing/tandem.h"
#include "radio/network.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace radiomc {
namespace {

/// Keeps `v` alive past the optimizer so measured loops are not folded
/// away (the moral equivalent of benchmark::DoNotOptimize).
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

/// One measured case: total work units and the wall time they took.
struct Measurement {
  std::uint64_t units = 0;
  std::uint64_t wall_ns = 0;

  double per_sec() const {
    return wall_ns == 0
               ? 0.0
               : static_cast<double>(units) * 1e9 /
                     static_cast<double>(wall_ns);
  }
};

/// Runs `body(batch)` — which must perform `batch` units of work — in
/// doubling batches until `min_time_ms` of wall time has accumulated.
/// One untimed warm-up batch absorbs cold caches and lazy allocation.
template <typename F>
Measurement measure(double min_time_ms, F&& body) {
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(min_time_ms * 1e6);
  body(std::uint64_t{1});  // warm-up, untimed
  Measurement m;
  std::uint64_t batch = 1;
  while (m.wall_ns < budget_ns) {
    Stopwatch sw;
    body(batch);
    m.wall_ns += sw.elapsed_ns();
    m.units += batch;
    if (batch < (1ULL << 20)) batch *= 2;
  }
  return m;
}

/// Engine slot throughput with all nodes idle. It never transmits or
/// wakes, so after the first slot the whole population is descheduled and
/// each slot costs O(active) ~ O(1) — this is the workload the active-set
/// rewrite exists for, and the row the perf gate watches for the speedup.
class IdleStation final : public Station {
 public:
  void on_slot(SlotTime, std::span<std::optional<Message>>) override {}
  void on_receive(SlotTime, ChannelId, const Message&) override {}
};

/// Engine slot throughput with every node transmitting (dense
/// superposition: every slot is a collision storm). Transmitting buys no
/// poll, so it wakes for the next slot on every poll.
class ChattyStation final : public Station {
 public:
  void on_attach(Waker& w) override { waker_ = &w; }
  void on_slot(SlotTime, std::span<std::optional<Message>> tx) override {
    waker_->wake();
    tx[0] = Message{};
  }
  void on_receive(SlotTime, ChannelId, const Message&) override {}

 private:
  Waker* waker_ = nullptr;
};

Graph make_topology(const std::string& topology, NodeId n) {
  if (topology == "grid") {
    NodeId side = 1;
    while (side * side < n) ++side;
    return gen::grid(side, side);
  }
  Rng rng(0x9E3779B97F4A7C15ULL ^ n);
  if (topology == "gnp_sparse") {
    // O(n + m) skip sampler, not conditioned on connectivity — the engine
    // doesn't care, and the O(n^2) sweep below cannot reach n = 10^6.
    return gen::gnp_fast(n, 8.0 / static_cast<double>(n), rng);
  }
  if (topology == "udg") {
    // Bucket-grid unit-disk sampler at a degree-targeted radius (expected
    // degree ~12; the connectivity radius would be far denser at 10^6).
    return gen::unit_disk_fast(n, gen::udg_degree_radius(n, 12.0), rng);
  }
  // Edge probability scaled so expected degree stays ~8 across sizes
  // instead of a fixed p making the larger graph much denser.
  const double p = 8.0 / static_cast<double>(n);
  return gen::gnp_connected(n, p, rng);
}

/// One engine-sweep cell: step a network of `workload` stations on
/// `topology` with ~n nodes and record slots/sec and node-slots/sec.
template <typename StationT>
void engine_case(const std::string& topology, NodeId n,
                 const std::string& workload, double min_time_ms,
                 bench::Table* table, bench::JsonEmitter* json) {
  const Graph g = make_topology(topology, n);
  std::deque<StationT> st(g.num_nodes());
  std::vector<Station*> ptrs;
  for (auto& s : st) ptrs.push_back(&s);
  RadioNetwork net(g);
  net.attach(std::move(ptrs));

  const Measurement m = measure(min_time_ms, [&](std::uint64_t batch) {
    for (std::uint64_t i = 0; i < batch; ++i) net.step();
    keep(net.now());
  });

  const double slots_per_sec = m.per_sec();
  const double node_slots_per_sec =
      slots_per_sec * static_cast<double>(g.num_nodes());
  table->row({topology, workload,
              bench::num(static_cast<std::uint64_t>(g.num_nodes())),
              bench::num(m.units), bench::num(slots_per_sec, 0),
              bench::num(node_slots_per_sec, 0)});
  json->row({{"case", "engine_slots"},
             {"topology", topology},
             {"workload", workload},
             {"n", static_cast<int>(g.num_nodes())},
             {"slots", m.units},
             {"slots_per_sec", slots_per_sec},
             {"node_slots_per_sec", node_slots_per_sec}});
}

/// Mixed cell: one permanently-active transmitter per `stride` stations
/// (it transmits and wakes in every slot), everyone else a
/// sleeping IdleStation. "sparse" (stride 256) is the shape of a large
/// network where almost everything is quiet: per-slot cost tracks the
/// chatty 1/256th of the population. "dense" (stride 8) is a busy slot
/// with real deliveries, where the cost is the scatter and the ordered
/// walk over the touched receiver cells, unlike "busy"'s collision storm
/// in which nobody listens.
void engine_mixed_case(const std::string& topology, NodeId n, NodeId stride,
                       const std::string& workload, double min_time_ms,
                       bench::Table* table, bench::JsonEmitter* json) {
  const Graph g = make_topology(topology, n);
  std::deque<IdleStation> idle;
  std::deque<ChattyStation> chatty;
  std::vector<Station*> ptrs;
  ptrs.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v % stride == 0) {
      chatty.emplace_back();
      ptrs.push_back(&chatty.back());
    } else {
      idle.emplace_back();
      ptrs.push_back(&idle.back());
    }
  }
  RadioNetwork net(g);
  net.attach(std::move(ptrs));

  const Measurement m = measure(min_time_ms, [&](std::uint64_t batch) {
    for (std::uint64_t i = 0; i < batch; ++i) net.step();
    keep(net.now());
  });

  const double slots_per_sec = m.per_sec();
  const double node_slots_per_sec =
      slots_per_sec * static_cast<double>(g.num_nodes());
  table->row({topology, workload,
              bench::num(static_cast<std::uint64_t>(g.num_nodes())),
              bench::num(m.units), bench::num(slots_per_sec, 0),
              bench::num(node_slots_per_sec, 0)});
  json->row({{"case", "engine_slots"},
             {"topology", topology},
             {"workload", workload},
             {"n", static_cast<int>(g.num_nodes())},
             {"slots", m.units},
             {"slots_per_sec", slots_per_sec},
             {"node_slots_per_sec", node_slots_per_sec}});
}

/// One micro case; `body(batch)` performs `batch` operations. `n <= 0`
/// means the case has no size parameter (and gets no "n" member, keeping
/// the row key stable for radiomc_perf).
template <typename F>
void micro_case(const std::string& name, int n, double min_time_ms,
                bench::Table* table, bench::JsonEmitter* json, F&& body) {
  const Measurement m = measure(min_time_ms, body);
  const double ops_per_sec = m.per_sec();
  table->row({name, n > 0 ? bench::num(std::uint64_t(n)) : "-",
              bench::num(m.units), bench::num(ops_per_sec, 0)});
  if (n > 0) {
    json->row({{"case", name},
               {"n", n},
               {"ops", m.units},
               {"ops_per_sec", ops_per_sec}});
  } else {
    json->row(
        {{"case", name}, {"ops", m.units}, {"ops_per_sec", ops_per_sec}});
  }
}

int run(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  double min_time_ms = 100.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-time-ms") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      min_time_ms = bench::checked_flag(
          [text] { return parse_real(text, "--min-time-ms"); });
    }
  }
  if (min_time_ms <= 0.0) min_time_ms = 1.0;

  const Stopwatch total;
  const std::uint64_t cpu0 = process_cpu_ns();

  bench::header("ENGINE",
                "simulator throughput trajectory (engineering numbers, "
                "not a paper claim)");
  std::printf("   min-time per case: %.0f ms\n", min_time_ms);
  bench::JsonEmitter json(
      "ENGINE",
      "simulator throughput trajectory (engineering numbers, not a paper "
      "claim)");

  // --- engine sweep: topology x size x workload --------------------------
  bench::Table engine({"topology", "workload", "n", "slots", "slots/s",
                       "node-slots/s"});
  for (const char* topology : {"grid", "gnp"}) {
    for (NodeId n : {NodeId{256}, NodeId{1024}}) {
      engine_case<IdleStation>(topology, n, "idle", min_time_ms, &engine,
                               &json);
      engine_case<ChattyStation>(topology, n, "busy", min_time_ms, &engine,
                                 &json);
      engine_mixed_case(topology, n, 256, "sparse", min_time_ms, &engine,
                        &json);
      engine_mixed_case(topology, n, 8, "dense", min_time_ms, &engine,
                        &json);
    }
  }
  // Million-node cells (O(n + m) samplers; the engine only ever touches
  // the stations that are doing something, which is what makes these rows
  // runnable at all). "busy" is deliberately absent at this size: a
  // 10^6-transmitter collision storm measures memory bandwidth, not the
  // scheduler.
  for (const char* topology : {"gnp_sparse", "udg"}) {
    const NodeId big = 1000000;
    engine_case<IdleStation>(topology, big, "idle", min_time_ms, &engine,
                             &json);
    engine_mixed_case(topology, big, 256, "sparse", min_time_ms, &engine,
                      &json);
  }
  engine.print();

  // --- substrate micro-benchmarks ----------------------------------------
  std::printf("\n");
  bench::Table micro({"case", "n", "ops", "ops/s"});

  {
    Rng rng(1);
    micro_case("rng_next", 0, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 std::uint64_t acc = 0;
                 for (std::uint64_t i = 0; i < batch; ++i) acc ^= rng.next();
                 keep(acc);
               });
  }
  {
    Rng rng(2);
    micro_case("rng_bernoulli", 0, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 std::uint64_t acc = 0;
                 for (std::uint64_t i = 0; i < batch; ++i)
                   acc += rng.bernoulli(0.3) ? 1 : 0;
                 keep(acc);
               });
  }
  {
    const Graph g = gen::star(33);
    Rng rng(3);
    std::vector<NodeId> tx;
    for (NodeId v = 1; v < 33; ++v) tx.push_back(v);
    micro_case("decay_invocation", 0, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 for (std::uint64_t i = 0; i < batch; ++i) {
                   const auto r = decay_single_trial(g, 0, tx, 10, rng);
                   keep(r);
                 }
               });
  }
  {
    const Graph g = gen::grid(5, 5);
    const BfsTree tree = oracle_bfs_tree(g, 0);
    Rng rng(4);
    micro_case("collection_full_run", 0, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 for (std::uint64_t i = 0; i < batch; ++i) {
                   std::vector<Message> init;
                   for (NodeId v = 1; v < g.num_nodes(); ++v) {
                     Message msg;
                     msg.kind = MsgKind::kData;
                     msg.origin = v;
                     init.push_back(msg);
                   }
                   const auto out = run_collection(
                       g, tree, init, CollectionConfig::for_graph(g),
                       rng.next());
                   keep(out);
                 }
               });
  }
  for (int stages : {8, 64}) {
    Rng rng(5);
    queueing::TandemQueue q(static_cast<std::uint32_t>(stages), 0.25,
                            rng.split(1));
    micro_case("tandem_step", stages, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 for (std::uint64_t i = 0; i < batch; ++i) {
                   const auto s = q.step(0.2);
                   keep(s);
                 }
               });
  }
  {
    Rng rng(6);
    micro_case("model4_completion", 0, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 for (std::uint64_t i = 0; i < batch; ++i) {
                   const auto r =
                       queueing::run_model4(64, 16, 0.25, 0.12, rng);
                   keep(r);
                 }
               });
  }
  for (NodeId side : {NodeId{16}, NodeId{64}}) {
    const Graph g = gen::grid(side, side);
    micro_case("oracle_bfs", static_cast<int>(side), min_time_ms, &micro,
               &json, [&](std::uint64_t batch) {
                 for (std::uint64_t i = 0; i < batch; ++i) {
                   const BfsTree t = oracle_bfs_tree(g, 0);
                   keep(t);
                 }
               });
  }
  {
    Rng rng(7);
    const Graph g = gen::gnp_connected(256, 0.05, rng);
    NodeId v = 0;
    micro_case("neighbor_iteration", 0, min_time_ms, &micro, &json,
               [&](std::uint64_t batch) {
                 std::uint64_t acc = 0;
                 for (std::uint64_t i = 0; i < batch; ++i) {
                   for (NodeId u : g.neighbors(v)) acc += u;
                   v = (v + 1) % g.num_nodes();
                 }
                 keep(acc);
               });
  }
  micro.print();

  const double cpu_ms = static_cast<double>(process_cpu_ns() - cpu0) / 1e6;
  json.set_run_info(opt.jobs, total.elapsed_ms(), cpu_ms);
  json.write();
  return 0;
}

}  // namespace
}  // namespace radiomc

int main(int argc, char** argv) { return radiomc::run(argc, argv); }

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "graph/generators.h"
#include "graph/topology_spec.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/point_to_point.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "service/service.h"
#include "support/stopwatch.h"
#include "support/util.h"
#include "telemetry/telemetry.h"

namespace perfbench {

using radiomc::BfsTree;
using radiomc::Graph;
using radiomc::Message;
using radiomc::NodeId;
using radiomc::Rng;
using radiomc::SlotTime;

namespace {

constexpr const char* kEpochs[] = {"leader_election", "bfs_verify",
                                   "dfs_graph",       "dfs_tree",
                                   "final_verify",    "completion_flood"};

/// Order-sensitive 64-bit hash of a word stream (multiply-xorshift).
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 29;
  }
  void add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counts collected by the traced hooks over one repeat, all jobs summed.
struct LayerCounts {
  std::uint64_t setups = 0, setup_attempts = 0, setup_slots = 0;
  std::uint64_t coll_slots = 0, coll_polls = 0;
  std::uint64_t coll_boundary_ns = 0, coll_timed_ns = 0;
  std::uint64_t p2p_slots = 0, p2p_polls = 0;
  std::uint64_t bc_slots = 0, bc_polls = 0, bc_resends = 0;
  std::uint64_t svc_phases = 0, svc_polls = 0;
  std::uint64_t svc_arrivals = 0, svc_admitted = 0;
  LogHistogram slot_ns, phase_ns;
};

/// One repeat in progress: the clocks behind the end-to-end metrics, the
/// failure tally, the digests and, when traced, the per-layer inputs.
class Repeat {
 public:
  explicit Repeat(const Options& opt) : opt_(opt) {
    if (traced()) tel_ = std::make_unique<radiomc::TelemetryHub>();
  }

  bool traced() const noexcept { return opt_.tracer != nullptr; }
  Tracer* tracer() const noexcept { return opt_.tracer; }
  radiomc::TelemetryHub* telemetry() const noexcept { return tel_.get(); }
  bool break_check() const noexcept { return opt_.break_check; }

  /// Runs `f` as set-up or protocol work: adds its host time to the
  /// matching end-to-end clock and, when traced, records span `name`.
  template <typename F>
  auto setup_call(const char* name, F&& f) {
    return timed(name, setup_ns_, std::forward<F>(f));
  }
  template <typename F>
  auto protocol_call(const char* name, F&& f) {
    return timed(name, protocol_ns_, std::forward<F>(f));
  }

  void attempt(std::uint64_t n) noexcept { out_.attempted += n; }
  void fail(std::uint64_t n = 1) noexcept { out_.failed += n; }
  void slots(std::uint64_t n) noexcept { out_.sim_slots += n; }
  Digest& digest() noexcept { return digest_; }
  Digest& inputs() noexcept { return inputs_; }
  LayerCounts& counts() noexcept { return counts_; }

  /// A SlotClock to install on the next network (traced runs only).
  SlotClock* clock(std::uint64_t spp = 0, std::vector<SlotTime> marks = {}) {
    if (!traced()) return nullptr;
    clock_ = std::make_unique<SlotClock>(spp, std::move(marks));
    return clock_.get();
  }
  const SlotClock* last_clock() const noexcept { return clock_.get(); }

  RepeatResult finish(std::uint64_t wall_ns);

 private:
  template <typename F>
  auto timed(const char* name, std::uint64_t& acc, F&& f) {
    Scope span(opt_.tracer, name);
    const std::uint64_t t0 = radiomc::monotonic_now_ns();
    auto out = f();
    acc += radiomc::monotonic_now_ns() - t0;
    return out;
  }

  Options opt_;
  std::unique_ptr<radiomc::TelemetryHub> tel_;
  std::unique_ptr<SlotClock> clock_;
  std::uint64_t setup_ns_ = 0, protocol_ns_ = 0;
  RepeatResult out_;
  Digest digest_, inputs_;
  LayerCounts counts_;
};

void hash_graph(Digest& d, const Graph& g) {
  d.add(std::uint64_t{g.num_nodes()});
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const NodeId u : g.neighbors(v)) d.add(std::uint64_t{u});
}

NodeId random_node_except(Rng& rng, NodeId n, NodeId avoid) {
  const auto v = static_cast<NodeId>(rng.next_below(n));
  return v == avoid ? (v + 1) % n : v;
}

std::vector<Message> collection_messages(Repeat& r, Rng& rng, NodeId n,
                                         NodeId root, std::uint64_t k) {
  std::vector<Message> init;
  for (std::uint64_t i = 0; i < k; ++i) {
    Message m;
    m.origin = random_node_except(rng, n, root);
    m.seq = static_cast<std::uint32_t>(i);
    m.payload = i;
    r.inputs().add(std::uint64_t{m.origin});
    init.push_back(m);
  }
  return init;
}

/// Timed: collection of `init` to the tree root. Checked: every
/// (origin, seq) arrives exactly once.
void collect(Repeat& r, const Graph& g, const BfsTree& tree,
             const std::vector<Message>& init, std::uint64_t seed) {
  radiomc::CollectionConfig cfg = radiomc::CollectionConfig::for_graph(g);
  cfg.telemetry = r.telemetry();
  cfg.slot_hook =
      r.clock(radiomc::PhaseClock(cfg.slots).slots_per_phase());
  const auto out = r.protocol_call("collection", [&] {
    return radiomc::run_collection(g, tree, init, cfg, seed);
  });
  r.slots(out.slots);
  r.digest().add(std::uint64_t{out.completed});
  r.digest().add(out.slots);
  r.digest().add(out.phases);
  for (const auto& d : out.deliveries) {
    r.digest().add(d.slot);
    r.digest().add((std::uint64_t{d.msg.origin} << 32) | d.msg.seq);
  }
  if (r.traced()) {
    LayerCounts& c = r.counts();
    c.coll_slots += out.slots;
    c.coll_polls += out.engine_polls;
    c.coll_boundary_ns += r.last_clock()->boundary_ns;
    c.coll_timed_ns += r.last_clock()->timed_ns;
    c.slot_ns.merge(r.last_clock()->slot_ns);
  }

  Scope check(r.tracer(), "check");
  auto deliveries = out.deliveries;
  if (r.break_check() && !deliveries.empty()) deliveries.pop_back();
  std::map<std::uint64_t, std::uint64_t> seen;
  for (const auto& d : deliveries)
    ++seen[(std::uint64_t{d.msg.origin} << 32) | d.msg.seq];
  r.attempt(init.size());
  for (const Message& m : init) {
    const auto it = seen.find((std::uint64_t{m.origin} << 32) | m.seq);
    if (it == seen.end() || it->second != 1) r.fail();
    if (it != seen.end()) seen.erase(it);
  }
  r.fail(seen.size());  // deliveries of messages never injected
}

/// Timed: a k-broadcast from `sources`. Checked: it completes.
void broadcast(Repeat& r, const Graph& g, const BfsTree& tree,
               const std::vector<NodeId>& sources, std::uint64_t seed) {
  auto cfg = radiomc::BroadcastServiceConfig::for_graph(g);
  cfg.telemetry = r.telemetry();
  cfg.slot_hook = r.clock();
  const auto out = r.protocol_call("broadcast", [&] {
    return radiomc::run_k_broadcast(g, tree, sources, cfg, seed);
  });
  r.slots(out.slots);
  r.digest().add(std::uint64_t{out.completed});
  r.digest().add(out.slots);
  r.digest().add(out.root_resends);
  r.digest().add(std::uint64_t{out.delivered_prefix});
  if (r.traced()) {
    LayerCounts& c = r.counts();
    c.bc_slots += out.slots;
    c.bc_polls += out.engine_polls;
    c.bc_resends += out.root_resends;
    c.slot_ns.merge(r.last_clock()->slot_ns);
  }

  Scope check(r.tracer(), "check");
  r.attempt(sources.size());
  if (!out.completed || out.delivered_prefix < sources.size())
    r.fail(sources.size() - std::min<std::uint64_t>(out.delivered_prefix,
                                                    sources.size()));
}

/// Timed: point-to-point on setup's DFS labels and routing. Checked: k out
/// of k requests delivered.
void point_to_point(Repeat& r, const Graph& g, const radiomc::SetupOutcome& s,
                    const std::vector<radiomc::P2pRequest>& reqs,
                    std::uint64_t seed) {
  radiomc::PreparationResult prep;
  prep.ok = true;
  prep.labels = s.labels;
  prep.routing = s.routing;
  auto cfg = radiomc::P2pConfig::for_graph(g);
  cfg.telemetry = r.telemetry();
  cfg.slot_hook = r.clock();
  const auto out = r.protocol_call("p2p", [&] {
    return radiomc::run_point_to_point(g, prep, reqs, cfg, seed);
  });
  r.slots(out.slots);
  r.digest().add(out.slots);
  r.digest().add(out.delivered);
  for (const SlotTime t : out.delivery_slot) r.digest().add(t);
  if (r.traced()) {
    r.counts().p2p_slots += out.slots;
    r.counts().p2p_polls += out.engine_polls;
    r.counts().slot_ns.merge(r.last_clock()->slot_ns);
  }

  Scope check(r.tracer(), "check");
  r.attempt(reqs.size());
  for (const SlotTime t : out.delivery_slot)
    if (t == static_cast<SlotTime>(-1)) r.fail();
  r.fail(reqs.size() - std::min(reqs.size(), out.delivery_slot.size()));
}

/// Set-up by the distributed protocol, with the epoch boundaries of its
/// globally known schedule marked so a traced run gets one span per epoch.
radiomc::SetupOutcome setup(Repeat& r, const Graph& g, std::uint64_t seed) {
  constexpr std::uint32_t kMaxAttempts = 12;
  radiomc::SetupTuning tuning;
  std::vector<SlotTime> marks;
  if (r.traced()) {
    const std::uint32_t dl = radiomc::decay_length(g.max_degree());
    SlotTime t = 0;
    for (std::uint32_t a = 0; a < kMaxAttempts; ++a) {
      const auto s = radiomc::setup_schedule(g.num_nodes(), dl, tuning, a);
      for (const SlotTime len : {s.le, s.bv, s.dfs1, s.dfs2, s.fv, s.gl})
        marks.push_back(t += len);
    }
    tuning.telemetry = r.telemetry();
  }
  tuning.slot_hook = r.clock(0, marks);
  // setup_call opens the "setup" span next, at this index.
  const int parent =
      r.traced() ? static_cast<int>(r.tracer()->spans().size()) : -1;
  auto out = r.setup_call("setup", [&] {
    return radiomc::run_setup(g, seed, tuning, kMaxAttempts);
  });
  r.slots(out.slots);
  r.digest().add(std::uint64_t{out.ok});
  r.digest().add(out.slots);
  r.digest().add(out.work_slots);
  r.digest().add(std::uint64_t{out.attempts});
  r.digest().add(std::uint64_t{out.leader});
  for (const NodeId p : out.tree.parent) r.digest().add(std::uint64_t{p});
  if (r.traced()) {
    LayerCounts& c = r.counts();
    ++c.setups;
    c.setup_attempts += out.attempts;
    c.setup_slots += out.slots;
    const SlotClock& clk = *r.last_clock();
    c.slot_ns.merge(clk.slot_ns);
    // The first epoch starts at the end of slot 1 (the first callback);
    // the slot before it stays in setup's self time.
    std::uint64_t start =
        r.tracer()->spans()[static_cast<std::size_t>(parent)].start_ns;
    for (std::size_t i = 0; i < clk.mark_ns.size(); ++i) {
      r.tracer()->add(std::string("setup.") + kEpochs[i % 6], start,
                      clk.mark_ns[i], parent);
      start = clk.mark_ns[i];
    }
  }
  return out;
}

/// Checked: setup succeeded and built a BFS tree of `g`.
bool setup_ok(Repeat& r, const Graph& g, const radiomc::SetupOutcome& s) {
  Scope check(r.tracer(), "check");
  r.attempt(1);
  const bool ok = s.ok && radiomc::is_bfs_tree_of(g, s.tree);
  if (!ok) r.fail();
  return ok;
}

// ---------------------------------------------------------------------------
// Workloads

/// What a radiomc_sim user waits for: distributed setup, then collection,
/// point-to-point and k-broadcast on the tree it built.
void cold_start(Repeat& r, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const std::vector<std::string> specs =
      tiny ? std::vector<std::string>{"grid:4x4", "udg:24"}
           : std::vector<std::string>{"grid:16x16", "udg:128"};
  const std::uint64_t k_coll = tiny ? 16 : 256;
  const std::uint64_t k_p2p = tiny ? 16 : 256;
  const std::uint64_t k_bc = tiny ? 4 : 16;

  Rng master(seed);
  for (const std::string& spec : specs) {
    Rng job = master.split(1);
    Rng graph_rng = job.split(2);
    const Graph g = r.setup_call("graph.build", [&] {
      return radiomc::gen::from_spec(spec, graph_rng);
    });
    hash_graph(r.inputs(), g);
    const radiomc::SetupOutcome s = setup(r, g, job.split(3).next());
    if (!setup_ok(r, g, s)) continue;  // nothing below runs without a tree

    Rng req = job.split(4);
    const NodeId n = g.num_nodes();
    collect(r, g, s.tree, collection_messages(r, req, n, s.leader, k_coll),
            job.split(5).next());

    std::vector<radiomc::P2pRequest> reqs;
    for (std::uint64_t i = 0; i < k_p2p; ++i) {
      reqs.push_back({static_cast<NodeId>(req.next_below(n)),
                      static_cast<NodeId>(req.next_below(n)), i});
      r.inputs().add((std::uint64_t{reqs.back().src} << 32) | reqs.back().dst);
    }
    point_to_point(r, g, s, reqs, job.split(6).next());

    std::vector<NodeId> sources;
    for (std::uint64_t i = 0; i < k_bc; ++i) {
      sources.push_back(static_cast<NodeId>(req.next_below(n)));
      r.inputs().add(std::uint64_t{sources.back()});
    }
    broadcast(r, g, s.tree, sources, job.split(7).next());
  }
}

/// A long collection soak on a small setup: bursty MMPP arrivals at about
/// 70 % of the advance rate, deferred rather than shed when a level fills.
void serve_soak(Repeat& r, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Rng master(seed);
  Rng graph_rng = master.split(1);
  const Graph g = r.setup_call("graph.build", [&] {
    return radiomc::gen::from_spec(tiny ? "grid:4x4" : "grid:8x8", graph_rng);
  });
  hash_graph(r.inputs(), g);
  const radiomc::SetupOutcome s = setup(r, g, master.split(2).next());
  if (!setup_ok(r, g, s)) return;

  namespace svc = radiomc::service;
  svc::ServeConfig cfg;
  cfg.arrival = svc::ArrivalSpec::parse("mmpp:0.05:0.4:0.05:0.1");
  cfg.admission.policy = svc::AdmissionPolicy::kDefer;
  cfg.phases = tiny ? 3'000 : 500'000;
  // No warmup: the outcome's counters then cover the whole run, which is
  // what makes delivered + backlog == admitted an exact check.
  cfg.warmup_phases = 0;
  cfg.telemetry = r.telemetry();
  const std::uint64_t spp = radiomc::PhaseClock(
      radiomc::CollectionConfig::for_graph(g).slots).slots_per_phase();
  cfg.slot_hook = r.clock(spp);
  const std::uint64_t run_seed = master.split(3).next();
  r.inputs().add(run_seed);
  const auto out = r.protocol_call(
      "service", [&] { return svc::run_service(g, s.tree, cfg, run_seed); });
  r.slots(out.slots);
  for (const std::uint64_t v :
       {out.slots, out.arrivals, out.admitted, out.deferred, out.shed,
        out.delivered, out.duplicates, out.backlog, out.defer_backlog,
        out.peak_level_depth})
    r.digest().add(v);
  r.digest().add(out.sojourn_phases.mean());
  if (r.traced()) {
    LayerCounts& c = r.counts();
    c.svc_phases += cfg.phases;
    c.svc_polls += out.engine_polls;
    c.svc_arrivals += out.arrivals;
    c.svc_admitted += out.admitted;
    c.slot_ns.merge(r.last_clock()->slot_ns);
    c.phase_ns.merge(r.last_clock()->phase_ns);
  }

  Scope check(r.tracer(), "check");
  r.attempt(out.arrivals);
  r.fail(out.shed + out.duplicates);
  if (out.delivered + out.backlog != out.admitted) r.fail();
}

/// Builds G(n, p) with p = c ln n / n and its oracle BFS tree from node 0
/// (the set-up of the bulk workloads: no distributed setup at this scale).
std::pair<Graph, BfsTree> bulk_world(Repeat& r, Rng& rng, NodeId n, double c) {
  const double p = c * std::log(static_cast<double>(n)) / n;
  Graph g = r.setup_call("graph.build", [&] {
    return radiomc::gen::gnp_sparse_connected(n, p, rng);
  });
  hash_graph(r.inputs(), g);
  BfsTree tree =
      r.setup_call("oracle_tree",
                   [&] { return radiomc::oracle_bfs_tree(g, 0); });
  Scope check(r.tracer(), "check");
  r.attempt(1);
  if (!radiomc::is_bfs_tree_of(g, tree)) r.fail();
  return {std::move(g), std::move(tree)};
}

/// Collection at the ROADMAP's 10^4-node scale: the working set exceeds
/// the caches and the driver's per-phase O(n) scan shows.
void bulk_collect(Repeat& r, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Rng master(seed);
  Rng graph_rng = master.split(1);
  const auto [g, tree] = bulk_world(r, graph_rng, tiny ? 2'000 : 50'000, 2.0);
  Rng req = master.split(2);
  collect(r, g, tree,
          collection_messages(r, req, g.num_nodes(), tree.root,
                              tiny ? 100 : 1'000),
          master.split(3).next());
}

/// Dense-delivery engine regime: k-broadcast on a 2048-node G(n, p).
/// c = 3 keeps Delta within (32, 64] on every seed, so the Decay length
/// (and with it the work per message) does not jump between seeds.
void bulk_broadcast(Repeat& r, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Rng master(seed);
  Rng graph_rng = master.split(1);
  const auto [g, tree] = bulk_world(r, graph_rng, tiny ? 256 : 2'048, 3.0);
  Rng req = master.split(2);
  std::vector<NodeId> sources;
  for (std::uint64_t i = 0; i < (tiny ? 4u : 16u); ++i) {
    sources.push_back(static_cast<NodeId>(req.next_below(g.num_nodes())));
    r.inputs().add(std::uint64_t{sources.back()});
  }
  broadcast(r, g, tree, sources, master.split(3).next());
}

/// A published engine counter; lookup-or-create, so an absent network
/// reads 0.
std::uint64_t counter(radiomc::TelemetryHub& tel, const char* name,
                      const char* protocol) {
  return tel.metrics.counter(name, {{"protocol", protocol}}).value();
}

RepeatResult Repeat::finish(std::uint64_t wall_ns) {
  out_.wall_s = static_cast<double>(wall_ns) / 1e9;
  out_.setup_s = static_cast<double>(setup_ns_) / 1e9;
  out_.protocol_s = static_cast<double>(protocol_ns_) / 1e9;
  out_.digest = digest_.value();
  out_.input_digest = inputs_.value();
  if (!traced()) return out_;

  const std::vector<Span>& spans = opt_.tracer->spans();
  const std::vector<std::uint64_t> self = opt_.tracer->self_ns();
  std::map<std::string, double> dur, self_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    dur[spans[i].name] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    self_s[spans[i].name] += static_cast<double>(self[i]) / 1e9;
  }
  const LayerCounts& c = counts_;
  radiomc::TelemetryHub& tel = *tel_;
  const auto tx = [&](const char* p) {
    return static_cast<double>(counter(tel, "engine.transmissions", p));
  };
  const auto rx = [&](const char* p) {
    return static_cast<double>(counter(tel, "engine.deliveries", p));
  };
  auto& L = out_.layer;
  L["graph.build_s"] = dur["graph.build"];
  L["graph.oracle_tree_s"] = dur["oracle_tree"];
  for (const char* e : kEpochs)
    L[std::string("setup.") + e + "_s"] = dur[std::string("setup.") + e];
  L["setup.self_s"] = self_s["setup"];
  L["setup.attempts"] = ratio(static_cast<double>(c.setup_attempts),
                              static_cast<double>(c.setups));
  const auto setup_slots = static_cast<double>(c.setup_slots);
  L["setup.ns_per_slot"] = ratio(dur["setup"] * 1e9, setup_slots);
  L["setup.tx_per_slot"] = ratio(tx("setup"), setup_slots);
  L["setup.delivery_per_tx"] = ratio(rx("setup"), tx("setup"));

  const auto coll_slots = static_cast<double>(c.coll_slots);
  L["collection.s"] = dur["collection"];
  L["collection.ns_per_slot"] = ratio(dur["collection"] * 1e9, coll_slots);
  L["collection.polls_per_slot"] =
      ratio(static_cast<double>(c.coll_polls), coll_slots);
  L["collection.boundary_share"] =
      ratio(static_cast<double>(c.coll_boundary_ns),
            static_cast<double>(c.coll_timed_ns));

  const auto p2p_slots = static_cast<double>(c.p2p_slots);
  L["p2p.s"] = dur["p2p"];
  L["p2p.ns_per_slot"] = ratio(dur["p2p"] * 1e9, p2p_slots);
  L["p2p.polls_per_slot"] = ratio(static_cast<double>(c.p2p_polls), p2p_slots);

  const auto bc_slots = static_cast<double>(c.bc_slots);
  L["broadcast.s"] = dur["broadcast"];
  L["broadcast.ns_per_slot"] = ratio(dur["broadcast"] * 1e9, bc_slots);
  L["broadcast.polls_per_slot"] =
      ratio(static_cast<double>(c.bc_polls), bc_slots);
  L["broadcast.tx_per_slot"] = ratio(tx("distribution"), bc_slots);
  L["broadcast.delivery_per_tx"] =
      ratio(rx("distribution"), tx("distribution"));
  L["broadcast.root_resends"] = static_cast<double>(c.bc_resends);

  L["service.s"] = dur["service"];
  L["service.phase_p50_ns"] = c.phase_ns.quantile(0.50);
  L["service.phase_p99_ns"] = c.phase_ns.quantile(0.99);
  L["service.phase_samples"] = static_cast<double>(c.phase_ns.count());
  L["service.polls_per_phase"] = ratio(static_cast<double>(c.svc_polls),
                                       static_cast<double>(c.svc_phases));
  L["service.admit_ratio"] = ratio(static_cast<double>(c.svc_admitted),
                                   static_cast<double>(c.svc_arrivals));

  // The engine across every network of the repeat. Setup reports no poll
  // count, so polls per slot covers the protocol networks only.
  const char* nets[] = {"setup", "collection", "point_to_point",
                        "distribution", "serve"};
  double all_slots = 0, all_tx = 0, all_rx = 0, all_coll = 0;
  for (const char* p : nets) {
    all_slots += static_cast<double>(counter(tel, "engine.slots", p));
    all_tx += tx(p);
    all_rx += rx(p);
    all_coll += static_cast<double>(counter(tel, "engine.collisions", p));
  }
  const double polled_slots =
      coll_slots + p2p_slots + bc_slots +
      static_cast<double>(counter(tel, "engine.slots", "serve"));
  L["radio.slot_p50_ns"] = c.slot_ns.quantile(0.50);
  L["radio.slot_p99_ns"] = c.slot_ns.quantile(0.99);
  L["radio.slot_samples"] = static_cast<double>(c.slot_ns.count());
  L["radio.polls_per_slot"] =
      ratio(static_cast<double>(c.coll_polls + c.p2p_polls + c.bc_polls +
                                c.svc_polls),
            polled_slots);
  L["radio.tx_per_slot"] = ratio(all_tx, all_slots);
  L["radio.deliveries_per_slot"] = ratio(all_rx, all_slots);
  L["radio.collisions_per_slot"] = ratio(all_coll, all_slots);

  L["check.s"] = dur["check"];
  // The root span's self time: wall time no layer or check span covers.
  L["trace.unattributed_s"] = self_s["workload"];
  return out_;
}

using WorkloadFn = void (*)(Repeat&, std::uint64_t, Size);

constexpr std::pair<const char*, WorkloadFn> kWorkloads[] = {
    {"cold-start", cold_start},
    {"serve-soak", serve_soak},
    {"bulk-collect", bulk_collect},
    {"bulk-broadcast", bulk_broadcast}};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [name, fn] : kWorkloads) v.emplace_back(name);
    return v;
  }();
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"graph.build_s", "s"}, {"graph.oracle_tree_s", "s"}};
    for (const char* e : kEpochs)
      v.emplace_back(std::string("setup.") + e + "_s", "s");
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"setup.self_s", "s"},
        {"setup.attempts", "count"},
        {"setup.ns_per_slot", "ns"},
        {"setup.tx_per_slot", "1/slot"},
        {"setup.delivery_per_tx", "ratio"},
        {"collection.s", "s"},
        {"collection.ns_per_slot", "ns"},
        {"collection.polls_per_slot", "1/slot"},
        {"collection.boundary_share", "ratio"},
        {"p2p.s", "s"},
        {"p2p.ns_per_slot", "ns"},
        {"p2p.polls_per_slot", "1/slot"},
        {"broadcast.s", "s"},
        {"broadcast.ns_per_slot", "ns"},
        {"broadcast.polls_per_slot", "1/slot"},
        {"broadcast.tx_per_slot", "1/slot"},
        {"broadcast.delivery_per_tx", "ratio"},
        {"broadcast.root_resends", "count"},
        {"service.s", "s"},
        {"service.phase_p50_ns", "ns"},
        {"service.phase_p99_ns", "ns"},
        {"service.phase_samples", "count"},
        {"service.polls_per_phase", "1/phase"},
        {"service.admit_ratio", "ratio"},
        {"radio.slot_p50_ns", "ns"},
        {"radio.slot_p99_ns", "ns"},
        {"radio.slot_samples", "count"},
        {"radio.polls_per_slot", "1/slot"},
        {"radio.tx_per_slot", "1/slot"},
        {"radio.deliveries_per_slot", "1/slot"},
        {"radio.collisions_per_slot", "1/slot"},
        {"check.s", "s"},
        {"trace.unattributed_s", "s"},
        {"trace.overhead_frac", "ratio"}};
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

RepeatResult run_workload(const std::string& workload, std::uint64_t seed,
                          const Options& opt) {
  WorkloadFn fn = nullptr;
  for (const auto& [name, f] : kWorkloads)
    if (workload == name) fn = f;
  if (fn == nullptr)
    throw std::invalid_argument("unknown workload: " + workload);
  Repeat r(opt);
  const std::uint64_t t0 = radiomc::monotonic_now_ns();
  {
    Scope root(opt.tracer, "workload");
    fn(r, seed, opt.size);
  }
  return r.finish(radiomc::monotonic_now_ns() - t0);
}

}  // namespace perfbench

#include "service/service.h"

#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "health/monitor.h"
#include "perf/profiler.h"
#include "queueing/analysis.h"
#include "radio/network.h"
#include "support/rng.h"
#include "support/rng_tags.h"
#include "support/util.h"

namespace radiomc::service {

namespace {

// Dedicated split tags (support/rng_tags.h): the arrival batch stream and
// the placement stream are independent of each other, of every per-station
// stream (tags 0..n-1) and of the fault stream, so changing the arrival
// law never perturbs station randomness and vice versa.

std::uint64_t tag_of(const Message& m) {
  return (static_cast<std::uint64_t>(m.origin) << 32) | m.seq;
}

}  // namespace

void ServeConfig::validate() const {
  arrival.validate();
  admission.validate();
  if (phases == 0)
    throw std::invalid_argument(
        "serve config: measured horizon must be at least one phase");
}

void validate_serve_flags(bool has_certify, bool has_horizon,
                          bool both_horizons, bool has_soak_out,
                          bool has_margin, bool has_sojourn_multiple,
                          bool has_envelope, bool has_admission) {
  if (both_horizons)
    throw std::invalid_argument(
        "--slots and --phases are mutually exclusive: give the serve "
        "horizon in one unit");
  if (has_certify && !has_horizon)
    throw std::invalid_argument(
        "--certify requires an explicit horizon (--slots N or --phases P): "
        "a soak verdict over a defaulted horizon certifies nothing");
  if (has_soak_out && !has_certify)
    throw std::invalid_argument(
        "--soak-out requires --certify (it writes the radiomc.soak/v1 "
        "verdict document)");
  if (has_margin && !has_certify)
    throw std::invalid_argument(
        "--certify-margin requires --certify (it tunes the throughput "
        "floor of the verdict)");
  if (has_sojourn_multiple && !has_certify)
    throw std::invalid_argument(
        "--certify-sojourn requires --certify (it tunes the Thm 4.15 "
        "sojourn bound of the verdict)");
  if (has_envelope && !has_admission)
    throw std::invalid_argument(
        "--envelope requires --admission shed|defer (it scales the "
        "admission controller's queue ceiling)");
}

ServeOutcome run_service(const Graph& g, const BfsTree& tree,
                         const ServeConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "serve: tree/graph mismatch");
  require(n >= 2, "serve: need a non-root node");

  // Candidate origins per placement.
  std::vector<NodeId> origins;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    if (cfg.placement == ArrivalPlacement::kUniform ||
        tree.level[v] == tree.depth)
      origins.push_back(v);
  }
  require(!origins.empty(), "serve: no arrival sites");

  Rng master(seed);
  CollectionConfig ccfg = CollectionConfig::for_graph(g);
  ccfg.dedup_guard = cfg.dedup_guard;
  std::vector<std::unique_ptr<CollectionStation>> st;
  // Queue depth per BFS level, kept exact by the stations' hops: every
  // in-network message sits on exactly one buffer (§4.1), and an inject
  // counts at once, so admission sees the depth its own admits made.
  std::vector<std::uint64_t> depth(tree.depth + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    st.push_back(
        std::make_unique<CollectionStation>(v, tree, ccfg, master.split(v)));
    st.back()->count_buffer_into(depth);
  }
  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : st) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  RadioNetwork net(g);
  // Serve takes no trace of its own: the trace sink is the health
  // monitor's flight recorder, so with health off the network carries no
  // sink at all and serve output stays byte-identical.
  net.observe({cfg.telemetry,
               cfg.health != nullptr ? cfg.health->sink() : nullptr,
               cfg.profiler, cfg.slot_hook});
  net.attach(std::move(ptrs));

  const std::uint64_t slots_per_phase = st[0]->clock().slots_per_phase();
  ArrivalProcess arrivals(cfg.arrival, master.split(rng_tags::kServiceArrival));
  Rng placement_rng = master.split(rng_tags::kServicePlacement);
  // Derived after the arrival/placement streams so a faulted run faces the
  // identical offered load as a fault-free run with the same seed.
  FaultSchedule fsch = FaultSchedule::for_run(g, cfg.faults, master);
  net.set_faults(&fsch);

  const double lambda = cfg.arrival.mean_rate();
  const double mu = queueing::mu_decay();
  AdmissionController admit(cfg.admission, lambda, mu);

  ServeOutcome out;
  out.level_envelope = admit.level_envelope();

  // Live registry handles, resolved once (registry references are stable).
  // Counters hold *full-run* running totals so a SnapshotStreamer sees the
  // service breathe from slot one; the outcome's counters cover only the
  // measured window (warmup excluded).
  telemetry::Counter* c_arrivals = nullptr;
  telemetry::Counter* c_admitted = nullptr;
  telemetry::Counter* c_deferred = nullptr;
  telemetry::Counter* c_shed = nullptr;
  telemetry::Counter* c_delivered = nullptr;
  telemetry::Counter* c_duplicates = nullptr;
  telemetry::Gauge* g_in_system = nullptr;
  telemetry::Gauge* g_defer_backlog = nullptr;
  telemetry::Distribution* d_depth = nullptr;
  if (cfg.telemetry != nullptr) {
    auto& reg = cfg.telemetry->metrics;
    const telemetry::Labels l{{"protocol", "serve"}};
    c_arrivals = &reg.counter("service.arrivals", l);
    c_admitted = &reg.counter("service.admitted", l);
    c_deferred = &reg.counter("service.deferred", l);
    c_shed = &reg.counter("service.shed", l);
    c_delivered = &reg.counter("service.delivered", l);
    c_duplicates = &reg.counter("service.duplicates", l);
    g_in_system = &reg.gauge("service.in_system", l);
    g_defer_backlog = &reg.gauge("service.defer_backlog", l);
    d_depth = &reg.distribution("service.level_depth", l);
  }

  // Ordered so no drain over in-flight tags can pick up hash-iteration
  // order (the lint unordered-container rule's contract).
  std::map<std::uint64_t, std::uint64_t> birth_phase;  // tag -> arrival phase
  std::deque<Message> held;  // defer policy's ingress queue, FIFO
  std::vector<std::uint32_t> next_seq(n, 0);
  std::vector<CollectionStation::Delivery> arrived;  // this phase's, drained
  std::uint64_t in_system = 0;
  std::uint64_t arrivals_total = 0;
  std::uint64_t delivered_total = 0;
  double sojourn_sum_total = 0.0;  // all deliveries, warmup included

  // Controller totals at the warmup boundary, for measured-window deltas.
  std::uint64_t admitted0 = 0, deferred0 = 0, shed0 = 0;

  const std::uint64_t total_phases = cfg.warmup_phases + cfg.phases;
  perf::PerfSpan run_span(cfg.profiler, "service.run");
  for (std::uint64_t phase = 0; phase < total_phases; ++phase) {
    perf::PerfSpan phase_span(cfg.profiler, "service.phase");
    const bool measured = phase >= cfg.warmup_phases;
    if (phase == cfg.warmup_phases) {
      admitted0 = admit.admitted();
      deferred0 = admit.deferred();
      shed0 = admit.shed();
    }

    // Ground-truth start-of-phase queue depths, O(depth) from the tally.
    for (std::uint32_t lv = 1; lv <= tree.depth; ++lv) {
      out.peak_level_depth = std::max(out.peak_level_depth, depth[lv]);
      if (measured && d_depth != nullptr)
        d_depth->add(static_cast<std::int64_t>(depth[lv]));
    }
    if (measured) out.population.add(static_cast<double>(in_system));

    // Retry the defer queue head-of-line FIFO: admit while there is room,
    // stop at the first message still over the envelope (one defer event
    // per phase for the whole queue, so the counter tracks held phases of
    // the head, not queue length).
    while (!held.empty()) {
      const std::uint32_t lv = tree.level[held.front().origin];
      if (admit.decide(depth[lv]) != AdmissionController::Decision::kAdmit)
        break;
      st[held.front().origin]->inject(held.front());
      ++in_system;
      held.pop_front();
    }

    // This phase's fresh offered load.
    const std::uint32_t batch = arrivals.step();
    for (std::uint32_t i = 0; i < batch; ++i) {
      const NodeId v = origins[placement_rng.next_below(origins.size())];
      ++arrivals_total;
      if (measured) ++out.arrivals;
      Message m;
      m.kind = MsgKind::kData;
      m.origin = v;
      m.seq = next_seq[v]++;
      const std::uint32_t lv = tree.level[v];
      switch (admit.decide(depth[lv])) {
        case AdmissionController::Decision::kAdmit:
          st[v]->inject(m);
          birth_phase[tag_of(m)] = phase;
          ++in_system;
          break;
        case AdmissionController::Decision::kDefer:
          // Sojourn is measured from *arrival*, so backpressure shows up
          // as latency, not as a hidden queue.
          birth_phase[tag_of(m)] = phase;
          held.push_back(m);
          break;
        case AdmissionController::Decision::kShed:
          break;
      }
    }

    net.run(slots_per_phase);

    st[tree.root]->take_root_sink(arrived);
    for (const CollectionStation::Delivery& d : arrived) {
      const Message& m = d.msg;
      const auto it = birth_phase.find(tag_of(m));
      if (it == birth_phase.end()) {
        // Root delivery of a tag never admitted or already delivered: an
        // exactly-once violation, counted over the whole run.
        ++out.duplicates;
        continue;
      }
      --in_system;
      ++delivered_total;
      sojourn_sum_total += static_cast<double>(phase - it->second + 1);
      if (measured) {
        ++out.delivered;
        out.sojourn_phases.add(static_cast<double>(phase - it->second + 1));
      }
      birth_phase.erase(it);
    }

    if (cfg.telemetry != nullptr) {
      c_arrivals->set(arrivals_total);
      c_admitted->set(admit.admitted());
      c_deferred->set(admit.deferred());
      c_shed->set(admit.shed());
      c_delivered->set(delivered_total);
      c_duplicates->set(out.duplicates);
      g_in_system->set(static_cast<double>(in_system));
      g_defer_backlog->set(static_cast<double>(held.size()));
    }

    if (cfg.health != nullptr) {
      health::PhaseSample hs;
      hs.phase = phase;
      hs.arrivals = arrivals_total;
      hs.delivered = delivered_total;
      hs.sojourn_sum = sojourn_sum_total;
      hs.in_system = in_system;
      hs.engine_polls = net.engine_stats().station_polls;
      hs.wake_events = net.engine_stats().wake_events;
      cfg.health->on_phase(hs);
    }
  }

  out.phases = cfg.phases;
  out.slots = net.metrics().slots;
  out.admitted = admit.admitted() - admitted0;
  out.deferred = admit.deferred() - deferred0;
  out.shed = admit.shed() - shed0;
  out.backlog = in_system;
  out.defer_backlog = held.size();
  out.engine_polls = net.engine_stats().station_polls;
  out.status = (admit.shed() > 0 || admit.deferred() > 0 ||
                out.duplicates > 0 ||
                static_cast<double>(out.peak_level_depth) >
                    2.0 * out.level_envelope)
                   ? RunStatus::kDegraded
                   : RunStatus::kOk;

  if (cfg.telemetry != nullptr) {
    telemetry::publish_net_metrics(net.metrics(), cfg.telemetry->metrics,
                                   "serve");
    telemetry::publish_fault_metrics(fsch, net.metrics(),
                                     cfg.telemetry->metrics, "serve");
  }
  if (cfg.profiler != nullptr) {
    cfg.profiler->count("service.slots", out.slots);
    cfg.profiler->count("service.phases", total_phases);
    cfg.profiler->count("service.delivered", delivered_total);
  }
  return out;
}

}  // namespace radiomc::service

// E17 — continuous-traffic service soaks (the `radiomc_sim serve` mode,
// src/service/): §4 collection run as a long-lived open-loop server under
// three arrival regimes, judged by the radiomc.soak/v1 certification
// against the Theorem 4.15 closed forms.
//
//  * stable cells (offered load < mu, Bernoulli and bursty MMPP) must
//    certify clean: sustained throughput >= (1-margin) lambda, mean
//    sojourn within 3x the tandem closed form, exactly-once, bounded
//    queues;
//  * an overloaded cell (poisson past mu into one contended level) must
//    FAIL certification while shed-mode admission control keeps every
//    queue within its Hsu-Burke envelope — degraded but bounded;
//  * a crash-churn cell must stay exactly-once through fault epochs
//    (the Remark 3 dedup guard) while still delivering.
//
// Cells shard across --jobs threads; seeds are drawn serially in loop
// order so every cell is job-count independent.

#include <sstream>
#include <vector>

#include "common.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "health/monitor.h"
#include "protocols/tree.h"
#include "queueing/analysis.h"
#include "service/certify.h"
#include "service/service.h"
#include "support/rng.h"

using namespace radiomc;
using namespace radiomc::bench;

namespace svc = radiomc::service;

namespace {

enum class Expect { kCertifies, kOverloadBounded, kChurnExactlyOnce };

struct Cell {
  const char* name;
  Graph g;
  svc::ServeConfig cfg;
  Expect expect;
  std::uint64_t seed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  RunTimer timer;
  header("E17: continuous service soaks under the soak/v1 certification",
         "stable loads certify against the Thm 4.15 closed forms; overload "
         "fails but admission control keeps queues inside the Hsu-Burke "
         "envelope; crash churn stays exactly-once");

  const double mu = queueing::mu_decay();
  Rng rng(0xE17);

  const auto base = [&](const char* arrival) {
    svc::ServeConfig cfg;
    cfg.arrival = svc::ArrivalSpec::parse(arrival);
    cfg.phases = 12'000;
    cfg.warmup_phases = 1'500;
    return cfg;
  };

  std::vector<Cell> cells;
  {
    Cell c{"grid6x6 bernoulli 0.5mu", gen::grid(6, 6),
           base("bernoulli:0.5"), Expect::kCertifies};
    c.cfg.arrival.rate = 0.5 * mu;
    cells.push_back(std::move(c));
  }
  // Bursty: mean 0.116 ~ 0.5 mu, but the on state offers 0.5/phase —
  // transient overload the network must absorb between bursts.
  cells.push_back({"grid6x6 mmpp bursty", gen::grid(6, 6),
                   base("mmpp:0.02:0.5:0.05:0.2"), Expect::kCertifies});
  {
    Cell c{"star24 poisson 0.8 + shed", gen::star(24),
           base("poisson:0.8"), Expect::kOverloadBounded};
    c.cfg.admission.policy = svc::AdmissionPolicy::kShed;
    c.cfg.admission.envelope_multiple = 1.0;
    cells.push_back(std::move(c));
  }
  {
    Cell c{"grid6x6 0.5mu + crash churn", gen::grid(6, 6),
           base("bernoulli:0.5"), Expect::kChurnExactlyOnce};
    c.cfg.arrival.rate = 0.5 * mu;
    c.cfg.faults.crash_rate = 0.01;
    c.cfg.faults.recover_rate = 0.3;
    c.cfg.faults.drop_prob = 0.01;
    c.cfg.faults.epoch_slots = 1024;
    cells.push_back(std::move(c));
  }
  for (Cell& c : cells) c.seed = rng.next();

  // Every cell also runs under the online health monitor (src/health/):
  // the default SLO battery over 256-phase windows. A stable cell must
  // stay alert-free for the whole soak; the overloaded cell must trip —
  // the alert engine is judged against the certification verdict it is
  // meant to predict.
  struct CellOutcome {
    svc::SoakVerdict v;
    std::uint64_t trips = 0;
    std::uint64_t active = 0;
  };
  const auto outs = run_indexed(cells.size(), opt.jobs, [&](std::uint64_t i) {
    Cell& c = cells[i];
    const BfsTree tree = oracle_bfs_tree(c.g, 0);
    health::HealthConfig hcfg;
    hcfg.window_phases = 256;
    hcfg.offered_rate = c.cfg.arrival.mean_rate();
    hcfg.depth = tree.depth;
    hcfg.warmup_phases = c.cfg.warmup_phases;
    std::ostringstream sink;
    health::Monitor mon(tree.level, hcfg, sink);
    c.cfg.health = &mon;
    const svc::ServeOutcome out = svc::run_service(c.g, tree, c.cfg, c.seed);
    mon.finish();
    CellOutcome co;
    co.v = svc::certify_soak(out, c.cfg.arrival.mean_rate(), mu, tree.depth,
                             svc::CertifyConfig{});
    co.trips = mon.trips();
    co.active = mon.active();
    return co;
  });

  JsonEmitter json("E17",
                   "service soaks: stable certifies, overload sheds "
                   "bounded, churn stays exactly-once");
  Table t({"cell", "lambda", "delivered/ph", "sojourn(ph)", "peak depth",
           "trips", "active", "verdict", "as expected"});
  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const svc::SoakVerdict& v = outs[i].v;
    bool cell_ok = false;
    const char* expect_name = "";
    switch (c.expect) {
      case Expect::kCertifies:
        // A certifying cell must also be alert-free: the online monitor
        // and the offline certification must agree on health.
        expect_name = "certifies";
        cell_ok = v.pass && outs[i].trips == 0;
        break;
      case Expect::kOverloadBounded:
        // ... and an overloaded cell must have tripped at least one rule
        // online before the offline verdict said FAIL.
        expect_name = "fails, bounded";
        cell_ok = !v.pass && v.shed > 0 &&
                  static_cast<double>(v.peak_level_depth) <=
                      v.queue_bound + 1.0 &&
                  outs[i].trips > 0;
        break;
      case Expect::kChurnExactlyOnce:
        expect_name = "exactly-once";
        cell_ok = v.exactly_once_ok && v.delivered > 0;
        break;
    }
    ok = ok && cell_ok;
    t.row({c.name, num(v.offered_rate, 3), num(v.delivered_rate, 3),
           num(v.sojourn_mean, 2), num(static_cast<double>(v.peak_level_depth), 0),
           num(static_cast<double>(outs[i].trips), 0),
           num(static_cast<double>(outs[i].active), 0),
           v.pass ? "PASS" : "fail", cell_ok ? "yes" : "NO"});
    json.row({{"cell", c.name},
              {"expect", expect_name},
              {"offered_rate", v.offered_rate},
              {"delivered_rate", v.delivered_rate},
              {"sojourn_mean_phases", v.sojourn_mean},
              {"sojourn_bound_phases", v.sojourn_bound},
              {"peak_level_depth", static_cast<double>(v.peak_level_depth)},
              {"queue_bound", v.queue_bound},
              {"shed", static_cast<double>(v.shed)},
              {"duplicates", static_cast<double>(v.duplicates)},
              {"alert_trips", static_cast<double>(outs[i].trips)},
              {"alerts_active", static_cast<double>(outs[i].active)},
              {"certified", v.pass},
              {"as_expected", cell_ok}});
  }
  t.print();
  verdict(ok,
          "the service holds its contract in every regime: certification "
          "tracks the closed forms, admission control bounds overload, the "
          "dedup guard keeps churn exactly-once");
  json.pass(ok);
  json.set_run_info(opt.jobs, timer.wall_ms(), timer.cpu_ms());
  return 0;
}

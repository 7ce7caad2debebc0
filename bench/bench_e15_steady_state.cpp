// E15 — the §4.3 queueing model validated against the live protocol:
// drive the collection protocol as an open system with Bernoulli(lambda)
// arrivals per phase and compare the measured stationary population and
// per-message sojourn with the model-4 closed forms. By Theorem 4.15 the
// network is dominated by the tandem, so measured <= model is the claim —
// and the margin shows how conservative mu = e^-1(1-e^-1) is.
//
// Each of the six (case, lambda) cells is one service::run_service run
// with Bernoulli arrivals and admission off. The cells shard across --jobs
// threads; seeds are drawn serially in loop order so every cell is
// job-count independent.

#include <vector>

#include "common.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/tree.h"
#include "queueing/analysis.h"
#include "service/service.h"
#include "support/rng.h"

using namespace radiomc;
using namespace radiomc::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  RunTimer timer;
  header("E15: live protocol vs the §4.3 queueing model",
         "open-system collection: measured population and sojourn must sit "
         "below the model-4 closed forms D*N and D*(1-lambda)/(mu-lambda)");

  const double mu = queueing::mu_decay();
  Rng rng(0xE15);

  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"path17 (D=16)", gen::path(17)});
  cases.push_back({"grid6x6 (D=10)", gen::grid(6, 6)});
  const std::vector<double> fracs = {0.25, 0.5, 0.75};

  struct Cell {
    std::size_t ci;
    double frac;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (std::size_t ci = 0; ci < cases.size(); ++ci)
    for (double frac : fracs) cells.push_back({ci, frac, rng.next()});

  const auto outs = run_indexed(cells.size(), opt.jobs, [&](std::uint64_t i) {
    const Cell& cell = cells[i];
    const Case& c = cases[cell.ci];
    const BfsTree tree = oracle_bfs_tree(c.g, 0);
    service::ServeConfig cfg;
    cfg.arrival.kind = service::ArrivalKind::kBernoulli;
    cfg.arrival.rate = mu * cell.frac;
    cfg.admission.policy = service::AdmissionPolicy::kOff;
    cfg.phases = 20'000;
    cfg.warmup_phases = 2'000;
    return service::run_service(c.g, tree, cfg, cell.seed);
  });

  JsonEmitter json("E15",
                   "open-system collection dominated by the model-4 closed "
                   "forms");
  bool ok = true;
  std::size_t idx = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    const BfsTree tree = oracle_bfs_tree(c.g, 0);
    std::printf("\n   %s, arrivals at the deepest level:\n", c.name);
    Table t({"lambda/mu", "measured pop", "model pop", "measured sojourn",
             "model sojourn", "dominated"});
    for (double frac : fracs) {
      const double lambda = mu * frac;
      const auto& out = outs[idx++];
      const double model_pop =
          tree.depth * queueing::mean_queue_length(lambda, mu);
      const double model_sojourn = tree.depth * queueing::mean_wait(lambda, mu);
      const bool cell_ok = out.population.mean() <= model_pop * 1.05 &&
                           out.sojourn_phases.mean() <= model_sojourn * 1.05;
      ok = ok && cell_ok;
      t.row({num(frac, 2), num(out.population.mean(), 2), num(model_pop, 2),
             num(out.sojourn_phases.mean(), 2), num(model_sojourn, 2),
             cell_ok ? "yes" : "NO"});
      json.row({{"topology", c.name},
                {"lambda_over_mu", frac},
                {"measured_population", out.population.mean()},
                {"model_population", model_pop},
                {"measured_sojourn_phases", out.sojourn_phases.mean()},
                {"model_sojourn_phases", model_sojourn},
                {"dominated", cell_ok}});
    }
    t.print();
  }
  verdict(ok,
          "the live network is dominated by its queueing model everywhere "
          "(Theorem 4.15 at work in the open system)");
  json.pass(ok);
  json.set_run_info(opt.jobs, timer.wall_ms(), timer.cpu_ms());
  return 0;
}

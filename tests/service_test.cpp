// The continuous-traffic service mode (src/service/): arrival processes,
// admission control, the open-loop driver, and soak certification.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "protocols/tree.h"
#include "queueing/analysis.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "service/certify.h"
#include "service/service.h"
#include "support/rng.h"

namespace radiomc::service {
namespace {

using radiomc::BfsTree;
using radiomc::Graph;
using radiomc::Rng;

/// Runs `fn`, which must throw std::invalid_argument, and returns the
/// message so the caller can pin the substring (the --trace-agg error
/// convention: specific messages are part of the interface).
template <typename Fn>
std::string InvalidMessage(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

#define EXPECT_MSG(call, substr)                                      \
  do {                                                                \
    const std::string msg_ = InvalidMessage([&] { call; });           \
    EXPECT_NE(msg_.find(substr), std::string::npos) << msg_;          \
  } while (0)

std::vector<std::uint32_t> Stream(const ArrivalSpec& spec, std::uint64_t seed,
                                  int n) {
  ArrivalProcess p(spec, Rng(seed));
  std::vector<std::uint32_t> v;
  v.reserve(n);
  for (int i = 0; i < n; ++i) v.push_back(p.step());
  return v;
}

// ---------------------------------------------------------------------------
// Arrival processes.
// ---------------------------------------------------------------------------

TEST(Arrival, SameSeedSameStreamEveryKind) {
  const std::vector<std::string> specs = {"bernoulli:0.3", "poisson:1.7",
                                          "mmpp:0.05:1:0.2:0.3"};
  for (const std::string& s : specs) {
    const ArrivalSpec spec = ArrivalSpec::parse(s);
    EXPECT_EQ(Stream(spec, 77, 2000), Stream(spec, 77, 2000)) << s;
    EXPECT_NE(Stream(spec, 77, 2000), Stream(spec, 78, 2000)) << s;
  }
}

TEST(Arrival, BernoulliIsZeroOneAtItsRate) {
  const auto v = Stream(ArrivalSpec::parse("bernoulli:0.3"), 5, 20000);
  std::uint64_t sum = 0;
  for (std::uint32_t x : v) {
    EXPECT_LE(x, 1u);
    sum += x;
  }
  EXPECT_NEAR(static_cast<double>(sum) / v.size(), 0.3, 0.02);
}

TEST(Arrival, PoissonInverseCdfMatchesMean) {
  const auto v = Stream(ArrivalSpec::parse("poisson:2"), 6, 20000);
  std::uint64_t sum = 0;
  std::uint32_t peak = 0;
  for (std::uint32_t x : v) {
    sum += x;
    peak = std::max(peak, x);
  }
  EXPECT_NEAR(static_cast<double>(sum) / v.size(), 2.0, 0.06);
  EXPECT_GE(peak, 5u);   // the tail exists...
  EXPECT_LE(peak, 64u);  // ...and the inverse-CDF walk is capped
}

TEST(Arrival, MmppMixesToItsStationaryRate) {
  const ArrivalSpec spec = ArrivalSpec::parse("mmpp:0.05:1:0.2:0.3");
  // pi_on = 0.2 / (0.2 + 0.3) = 0.4; mean = 0.4 * 1 + 0.6 * 0.05.
  EXPECT_NEAR(spec.mean_rate(), 0.43, 1e-12);
  ArrivalProcess p(spec, Rng(9));
  std::uint64_t sum = 0;
  bool saw_on = false, saw_off = false;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += p.step();
    (p.bursting() ? saw_on : saw_off) = true;
  }
  EXPECT_NEAR(static_cast<double>(sum) / n, spec.mean_rate(), 0.05);
  EXPECT_TRUE(saw_on);
  EXPECT_TRUE(saw_off);
}

TEST(Arrival, ParseRoundTrips) {
  const ArrivalSpec p = ArrivalSpec::parse("poisson:2.5");
  EXPECT_EQ(p.kind, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(p.rate, 2.5);
  const ArrivalSpec m = ArrivalSpec::parse("mmpp:0:1:0.2:0.5");
  EXPECT_EQ(m.kind, ArrivalKind::kMmpp);
  EXPECT_DOUBLE_EQ(m.on_rate, 1.0);
  EXPECT_NE(m.describe().find("mmpp"), std::string::npos);
}

TEST(Arrival, ParseRejectsWithSpecificMessages) {
  EXPECT_MSG(ArrivalSpec::parse(""), "arrival spec: empty");
  EXPECT_MSG(ArrivalSpec::parse("uniform:1"), "unknown kind 'uniform'");
  EXPECT_MSG(ArrivalSpec::parse("bernoulli"), "takes exactly one parameter");
  EXPECT_MSG(ArrivalSpec::parse("bernoulli:0"), "must be in (0, 1)");
  EXPECT_MSG(ArrivalSpec::parse("bernoulli:1"), "must be in (0, 1)");
  EXPECT_MSG(ArrivalSpec::parse("bernoulli:1.5"), "must be in (0, 1)");
  EXPECT_MSG(ArrivalSpec::parse("poisson:x"), "'x' is not a number");
  EXPECT_MSG(ArrivalSpec::parse("poisson:2abc"), "trailing junk");
  // Checked numbers: no overflow to a stod exception, no hex, no padding.
  EXPECT_MSG(ArrivalSpec::parse("bernoulli:1e999"),
             "rate '1e999' is out of range");
  EXPECT_MSG(ArrivalSpec::parse("bernoulli:0x0.1"),
             "rate '0x0.1' has trailing junk");
  EXPECT_MSG(ArrivalSpec::parse("poisson: 0.5"), "' 0.5' is not a number");
  EXPECT_MSG(ArrivalSpec::parse("poisson:-0.5"), "'-0.5' is negative");
  EXPECT_MSG(ArrivalSpec::parse("poisson:9"), "must be <= 8");
  EXPECT_MSG(ArrivalSpec::parse("mmpp:0.1:0.2"), "exactly four parameters");
  EXPECT_MSG(ArrivalSpec::parse("mmpp:0.5:0.2:0.5:0.5"),
             "on-state rate must be >= ");
  EXPECT_MSG(ArrivalSpec::parse("mmpp:0.1:0.5:0:0.5"),
             "p_on (off->on switch probability)");
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(Admission, PolicyParsing) {
  EXPECT_EQ(admission_policy_from_string("off"), AdmissionPolicy::kOff);
  EXPECT_EQ(admission_policy_from_string("shed"), AdmissionPolicy::kShed);
  EXPECT_EQ(admission_policy_from_string("defer"), AdmissionPolicy::kDefer);
  EXPECT_MSG(admission_policy_from_string("drop"),
             "--admission 'drop' is not a policy");
}

TEST(Admission, ConfigRejectsNonPositiveMultiple) {
  AdmissionConfig cfg;
  cfg.envelope_multiple = 0.0;
  EXPECT_MSG(cfg.validate(), "envelope multiple must be > 0");
}

TEST(Admission, OffAdmitsEverything) {
  AdmissionConfig cfg;  // policy off
  AdmissionController c(cfg, 0.1, queueing::mu_decay());
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(c.decide(1u << 20), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(c.admitted(), 5u);
  EXPECT_EQ(c.shed() + c.deferred(), 0u);
}

TEST(Admission, ShedAndDeferTriggerAtTheEnvelope) {
  const double mu = queueing::mu_decay();
  // At half load the Hsu-Burke mean is < 1 message, so the floor makes the
  // envelope exactly the multiple.
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kShed;
  cfg.envelope_multiple = 1.0;
  AdmissionController shed(cfg, mu / 2, mu);
  EXPECT_DOUBLE_EQ(shed.level_envelope(), 1.0);
  EXPECT_EQ(shed.decide(0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(shed.decide(1), AdmissionController::Decision::kShed);
  EXPECT_EQ(shed.admitted(), 1u);
  EXPECT_EQ(shed.shed(), 1u);

  cfg.policy = AdmissionPolicy::kDefer;
  AdmissionController defer(cfg, mu / 2, mu);
  EXPECT_EQ(defer.decide(1), AdmissionController::Decision::kDefer);
  EXPECT_EQ(defer.deferred(), 1u);
}

TEST(Admission, OverloadEnvelopeStaysFinite) {
  const double mu = queueing::mu_decay();
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kShed;
  AdmissionController c(cfg, /*lambda=*/4.0, mu);  // way past mu
  EXPECT_TRUE(std::isfinite(c.level_envelope()));
  EXPECT_GT(c.level_envelope(), 0.0);
  // lambda_eff caps at 0.9 mu, so the envelope equals the capped form.
  const double capped = queueing::mean_queue_length(0.9 * mu, mu);
  EXPECT_DOUBLE_EQ(c.level_envelope(),
                   cfg.envelope_multiple * std::max(1.0, capped));
}

// ---------------------------------------------------------------------------
// The open-loop driver.
// ---------------------------------------------------------------------------

ServeConfig BaseConfig(const std::string& arrival, std::uint64_t phases,
                       std::uint64_t warmup) {
  ServeConfig cfg;
  cfg.arrival = ArrivalSpec::parse(arrival);
  cfg.phases = phases;
  cfg.warmup_phases = warmup;
  return cfg;
}

/// Bernoulli(rate) arrivals with admission off: the §4.3 open system.
ServeConfig OpenLoop(double rate, std::uint64_t phases, std::uint64_t warmup) {
  ServeConfig cfg = BaseConfig("bernoulli:0.5", phases, warmup);
  cfg.arrival.rate = rate;
  return cfg;
}

TEST(Serve, DeterministicAcrossRuns) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const ServeConfig cfg = BaseConfig("mmpp:0.02:0.5:0.1:0.2", 1500, 200);
  const ServeOutcome a = run_service(g, tree, cfg, 21);
  const ServeOutcome b = run_service(g, tree, cfg, 21);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.engine_polls, b.engine_polls);
  EXPECT_EQ(a.population.mean(), b.population.mean());
  EXPECT_EQ(a.sojourn_phases.mean(), b.sojourn_phases.mean());

  const ServeOutcome c = run_service(g, tree, cfg, 22);
  EXPECT_FALSE(a.arrivals == c.arrivals &&
               a.population.mean() == c.population.mean() &&
               a.sojourn_phases.mean() == c.sojourn_phases.mean());
}

TEST(Serve, ConservesMessagesWithoutWarmup) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const ServeOutcome out =
      run_service(g, tree, BaseConfig("bernoulli:0.1", 2500, 0), 31);
  EXPECT_GE(out.arrivals, 150u);
  EXPECT_EQ(out.arrivals, out.admitted);  // policy off
  EXPECT_EQ(out.admitted, out.delivered + out.backlog);
  EXPECT_EQ(out.duplicates, 0u);
  EXPECT_EQ(out.status, RunStatus::kOk);
}

// The §4.3 open system (Bernoulli arrivals, admission off) that experiment
// E15 measures.
TEST(SteadyState, ConservesMessages) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const ServeOutcome out = run_service(g, tree, OpenLoop(0.1, 3000, 0), 11);
  // At low load everything injected drains: delivered ~ arrivals (the last
  // few may be in flight).
  EXPECT_GE(out.arrivals, 200u);
  EXPECT_GE(out.delivered + 20, out.arrivals);
}

TEST(SteadyState, PopulationGrowsWithLoad) {
  const Graph g = gen::path(13);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const double mu = queueing::mu_decay();
  const ServeOutcome lo =
      run_service(g, tree, OpenLoop(0.2 * mu, 8000, 1000), 12);
  const ServeOutcome hi =
      run_service(g, tree, OpenLoop(0.9 * mu, 8000, 1000), 12);
  EXPECT_GT(hi.population.mean(), lo.population.mean());
  EXPECT_GT(hi.sojourn_phases.mean(), 0.0);
}

TEST(SteadyState, DominatedByModel4ClosedForms) {
  // Theorem 4.15: the live network is dominated by the model-4 tandem.
  const Graph g = gen::path(11);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const double mu = queueing::mu_decay();
  const double lambda = mu / 2;
  const ServeOutcome out =
      run_service(g, tree, OpenLoop(lambda, 15000, 2000), 13);
  EXPECT_LE(out.population.mean(),
            tree.depth * queueing::mean_queue_length(lambda, mu) * 1.05);
  EXPECT_LE(out.sojourn_phases.mean(),
            tree.depth * queueing::mean_wait(lambda, mu) * 1.05);
}

TEST(SteadyState, UniformPlacementWorksToo) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  ServeConfig cfg = OpenLoop(0.15, 4000, 500);
  cfg.placement = ArrivalPlacement::kUniform;
  const ServeOutcome out = run_service(g, tree, cfg, 14);
  EXPECT_GT(out.delivered, 0u);
  EXPECT_GT(out.sojourn_phases.mean(), 0.0);
}

TEST(SteadyState, ValidatesArguments) {
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  EXPECT_THROW(run_service(g, tree, OpenLoop(0.0, 10, 0), 1),
               std::invalid_argument);
  EXPECT_THROW(run_service(g, tree, OpenLoop(1.0, 10, 0), 1),
               std::invalid_argument);
}

TEST(Serve, AutosleepIsByteIdenticalAndCheaper) {
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const ServeOutcome a =
      run_service(g, tree, BaseConfig("bernoulli:0.08", 1200, 100), 41);
  // The Waker contract: sleeping changes which stations get polled, never
  // what any station computes. The pins are this run's outcome with every
  // station polled in every slot (780,000 polls), recorded before the
  // sleeping path became the only one.
  EXPECT_EQ(a.arrivals, 99u);
  EXPECT_EQ(a.delivered, 99u);
  EXPECT_EQ(a.slots, 31200u);
  EXPECT_EQ(a.backlog, 0u);
  EXPECT_EQ(a.population.mean(), 0.082500000000000046);
  EXPECT_EQ(a.sojourn_phases.mean(), 2.0);
  EXPECT_LT(a.engine_polls, std::uint64_t{g.num_nodes()} * a.slots);
}

TEST(Serve, ShedBoundsQueuesUnderOverload) {
  // star: every leaf shares BFS level 1, so a super-mu offered load piles
  // into one contended level and the envelope must engage.
  const Graph g = gen::star(24);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  ServeConfig cfg = BaseConfig("poisson:0.8", 1000, 100);
  cfg.admission.policy = AdmissionPolicy::kShed;
  cfg.admission.envelope_multiple = 1.0;
  const ServeOutcome out = run_service(g, tree, cfg, 51);
  EXPECT_GT(out.shed, 0u);
  EXPECT_EQ(out.status, RunStatus::kDegraded);
  EXPECT_LE(static_cast<double>(out.peak_level_depth),
            2.0 * out.level_envelope + 1.0);
}

TEST(Serve, DeferHoldsArrivalsInsteadOfDropping) {
  const Graph g = gen::star(24);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  ServeConfig cfg = BaseConfig("poisson:0.8", 1000, 100);
  cfg.admission.policy = AdmissionPolicy::kDefer;
  cfg.admission.envelope_multiple = 1.0;
  const ServeOutcome out = run_service(g, tree, cfg, 51);
  EXPECT_GT(out.deferred, 0u);
  EXPECT_EQ(out.shed, 0u);
  EXPECT_GT(out.defer_backlog, 0u);  // overload: the hold queue never drains
  EXPECT_EQ(out.status, RunStatus::kDegraded);
}

TEST(Serve, FaultChurnStaysExactlyOnce) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  ServeConfig cfg = BaseConfig("bernoulli:0.05", 2000, 0);
  cfg.faults.crash_rate = 0.02;
  cfg.faults.recover_rate = 0.3;
  cfg.faults.drop_prob = 0.01;
  cfg.faults.epoch_slots = 512;
  const ServeOutcome out = run_service(g, tree, cfg, 61);
  EXPECT_GT(out.delivered, 0u);
  EXPECT_EQ(out.duplicates, 0u);  // Remark 3 dedup guard holds under churn
}

TEST(Serve, ValidatesConfigAndFlagPairs) {
  const Graph g = gen::path(4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  ServeConfig zero = BaseConfig("bernoulli:0.1", 0, 10);
  EXPECT_MSG(run_service(g, tree, zero, 1),
             "measured horizon must be at least one phase");

  const auto flags = [](bool certify, bool horizon, bool both, bool soak,
                        bool margin, bool sojourn, bool envelope,
                        bool admission) {
    validate_serve_flags(certify, horizon, both, soak, margin, sojourn,
                         envelope, admission);
  };
  EXPECT_MSG(flags(false, true, true, false, false, false, false, false),
             "--slots and --phases are mutually exclusive");
  EXPECT_MSG(flags(true, false, false, false, false, false, false, false),
             "--certify requires an explicit horizon");
  EXPECT_MSG(flags(false, true, false, true, false, false, false, false),
             "--soak-out requires --certify");
  EXPECT_MSG(flags(false, true, false, false, true, false, false, false),
             "--certify-margin requires --certify");
  EXPECT_MSG(flags(false, true, false, false, false, true, false, false),
             "--certify-sojourn requires --certify");
  EXPECT_MSG(flags(false, true, false, false, false, false, true, false),
             "--envelope requires --admission shed|defer");
  // The valid pairings pass.
  EXPECT_NO_THROW(flags(true, true, false, true, true, true, true, true));
  EXPECT_NO_THROW(
      flags(false, false, false, false, false, false, false, false));
}

// ---------------------------------------------------------------------------
// Soak certification.
// ---------------------------------------------------------------------------

TEST(Certify, ConfigRejectsBadBounds) {
  CertifyConfig cfg;
  cfg.throughput_margin = 0.0;
  EXPECT_MSG(cfg.validate(), "throughput margin must be in (0, 1)");
  cfg = CertifyConfig{};
  cfg.sojourn_multiple = 0.0;
  EXPECT_MSG(cfg.validate(), "sojourn multiple must be > 0");
}

TEST(Certify, StableLoadPasses) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const double mu = queueing::mu_decay();
  const double lambda = 0.5 * mu;
  ServeConfig cfg = BaseConfig("bernoulli:0.5", 12000, 1000);
  cfg.arrival.rate = lambda;
  const ServeOutcome out = run_service(g, tree, cfg, 71);
  const SoakVerdict v =
      certify_soak(out, lambda, mu, tree.depth, CertifyConfig{});
  EXPECT_TRUE(v.throughput_ok)
      << v.delivered_rate << " vs floor " << v.throughput_floor;
  EXPECT_TRUE(v.sojourn_ok) << v.sojourn_mean << " vs " << v.sojourn_bound;
  EXPECT_TRUE(v.exactly_once_ok);
  EXPECT_TRUE(v.queues_bounded);
  EXPECT_TRUE(v.pass);
  EXPECT_FALSE(v.degraded);
}

TEST(Certify, OverloadMustFail) {
  const Graph g = gen::star(16);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const double mu = queueing::mu_decay();
  const ServeOutcome out =
      run_service(g, tree, BaseConfig("poisson:0.5", 1200, 100), 81);
  const SoakVerdict v = certify_soak(out, 0.5, mu, tree.depth,
                                     CertifyConfig{});
  // No stationary sojourn exists at lambda >= mu: the bound is NaN and the
  // check fails by definition, so an overloaded soak can never certify.
  EXPECT_FALSE(v.pass);
  EXPECT_FALSE(v.sojourn_ok);
  EXPECT_TRUE(std::isnan(v.sojourn_bound));
}

TEST(Certify, VerdictSerializesAsSoakV1) {
  const Graph g = gen::grid(3, 3);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const ServeOutcome out =
      run_service(g, tree, BaseConfig("bernoulli:0.1", 800, 100), 91);
  const SoakVerdict v = certify_soak(out, 0.1, queueing::mu_decay(),
                                     tree.depth, CertifyConfig{});
  const std::string doc = v.to_json();
  EXPECT_NE(doc.find("\"schema\":\"radiomc.soak/v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"pass\""), std::string::npos);
  EXPECT_NE(doc.find("\"throughput\""), std::string::npos);
  EXPECT_NE(doc.find("\"exactly_once\""), std::string::npos);
  const std::string path = ::testing::TempDir() + "radiomc_soak_test.json";
  EXPECT_TRUE(v.write_json_file(path));
}

}  // namespace
}  // namespace radiomc::service

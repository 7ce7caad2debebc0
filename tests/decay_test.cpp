// Tests for the Decay primitive [3]:
//  * DecayProcess mechanics (transmit-then-flip, bounded length, stop).
//  * Property (1): an invocation spans at most 2 ceil(log2 Delta) slots.
//  * Property (2): with 1..Delta transmitting neighbors, a listener
//    receives some message with probability > 1/2 — swept over Delta and
//    the number of transmitters with TEST_P.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "protocols/decay.h"
#include "radio/schedule.h"
#include "support/rng.h"
#include "support/stats.h"

namespace radiomc {
namespace {

TEST(DecayProcess, TransmitsAtLeastOnce) {
  // "repeat ... transmit; flip coin; until coin = 0": the first transmit
  // happens unconditionally.
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    DecayProcess d(8);
    d.start();
    ASSERT_TRUE(d.wants_transmit());
    d.after_transmit(rng);
  }
}

TEST(DecayProcess, NeverExceedsLength) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    DecayProcess d(6);
    d.start();
    int transmissions = 0;
    while (d.wants_transmit()) {
      ++transmissions;
      d.after_transmit(rng);
    }
    EXPECT_LE(transmissions, 6);
    EXPECT_GE(transmissions, 1);
  }
}

TEST(DecayProcess, StopAborts) {
  Rng rng(3);
  DecayProcess d(8);
  d.start();
  d.after_transmit(rng);
  d.stop();
  EXPECT_FALSE(d.wants_transmit());
  EXPECT_FALSE(d.live());
}

TEST(DecayProcess, MayTransmitInFollowsThePhaseAndTheInvocation) {
  Rng rng(5);
  DecayProcess d(8);
  EXPECT_TRUE(d.may_transmit_in(0));  // no phase begun: every one is new
  ASSERT_TRUE(d.transmits_in(3));
  EXPECT_TRUE(d.may_transmit_in(3));  // live invocation
  EXPECT_TRUE(d.may_transmit_in(4));  // a phase change
  for (int i = 0; i < 8 && d.transmits_in(3); ++i) d.end_slot(rng);
  EXPECT_FALSE(d.may_transmit_in(3));  // dead (coin or length) in its phase
  EXPECT_TRUE(d.may_transmit_in(4));   // the next phase starts afresh
  ASSERT_TRUE(d.transmits_in(4));
  d.stop();  // an ack arrived
  EXPECT_FALSE(d.may_transmit_in(4));
  EXPECT_TRUE(d.may_transmit_in(5));
  d.reset();
  EXPECT_TRUE(d.may_transmit_in(4));
}

TEST(DecayProcess, NextTransmitSlotSkipsToTheNextPhaseOnlyWhenDead) {
  for (const bool acks : {false, true}) {
    for (const bool gating : {false, true}) {
      SlotStructure s;
      s.decay_len = 3;
      s.ack_subslots = acks;
      s.mod3_gating = gating;
      const PhaseClock c(s);
      for (std::uint32_t level = 0; level <= 5; ++level) {
        DecayProcess live(3);
        DecayProcess dead(3);
        ASSERT_TRUE(live.transmits_in(1));
        ASSERT_TRUE(dead.transmits_in(1));
        dead.stop();
        for (SlotTime t = 0; t <= 120; ++t) {
          for (const DecayProcess* d : {&live, &dead}) {
            SlotTime want = t + 1;
            while (!c.level_may_send_data(c.decode(want), level) ||
                   !d->may_transmit_in(c.decode(want).phase))
              ++want;
            ASSERT_EQ(d->next_transmit_slot(c, t, level), want)
                << "acks " << acks << " gating " << gating << " level "
                << level << " t " << t << " live " << d->live();
          }
        }
      }
    }
  }
}

TEST(DecayProcess, GeometricSurvival) {
  // P(still live after j transmissions) = 2^-j.
  Rng rng(4);
  const int trials = 20000;
  int survived_3 = 0;
  for (int i = 0; i < trials; ++i) {
    DecayProcess d(16);
    d.start();
    for (int j = 0; j < 3 && d.wants_transmit(); ++j) d.after_transmit(rng);
    if (d.live()) ++survived_3;
  }
  EXPECT_NEAR(static_cast<double>(survived_3) / trials, 0.125, 0.01);
}

// Property (2) sweep: star with `delta` leaves, `k` of them transmit; the
// hub must receive with probability > 1/2 within 2 log2(delta) slots.
class DecayPropertyTwo
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecayPropertyTwo, HubReceivesWithProbAtLeastHalf) {
  const auto [delta, k] = GetParam();
  const Graph g = gen::star(delta + 1);
  const std::uint32_t len = decay_length(delta);
  Rng rng(1000 + delta * 31 + k);
  std::vector<NodeId> tx;
  for (int i = 1; i <= k; ++i) tx.push_back(static_cast<NodeId>(i));

  ProportionEstimate est;
  est.trials = 600;
  for (std::uint64_t i = 0; i < est.trials; ++i)
    if (decay_single_trial(g, 0, tx, len, rng)) ++est.successes;
  // The guarantee is > 1/2; allow statistical slack via the Wilson bound.
  EXPECT_GT(est.wilson_upper(), 0.5) << "point=" << est.point();
  EXPECT_GT(est.point(), 0.45) << "delta=" << delta << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecayPropertyTwo,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(2, 2),
                      std::make_tuple(4, 2), std::make_tuple(4, 4),
                      std::make_tuple(8, 3), std::make_tuple(8, 8),
                      std::make_tuple(16, 5), std::make_tuple(16, 16),
                      std::make_tuple(32, 32), std::make_tuple(64, 64),
                      std::make_tuple(64, 17)));

TEST(DecayTrial, SingleTransmitterAlwaysSucceeds) {
  const Graph g = gen::star(5);
  Rng rng(7);
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(decay_single_trial(g, 0, {3}, 4, rng));
}

TEST(DecayTrial, NoTransmittersNeverSucceeds) {
  const Graph g = gen::star(5);
  Rng rng(8);
  EXPECT_FALSE(decay_single_trial(g, 0, {}, 4, rng));
}

TEST(DecayTrial, ValidatesArguments) {
  const Graph g = gen::star(3);
  Rng rng(9);
  EXPECT_THROW(decay_single_trial(g, 0, {0}, 4, rng), std::invalid_argument);
  EXPECT_THROW(decay_single_trial(g, 9, {1}, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace radiomc

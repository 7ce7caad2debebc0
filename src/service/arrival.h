#pragma once

// Pluggable deterministic arrival processes for the continuous-traffic
// service mode (`radiomc_sim serve`).
//
// The §4.3 queueing analysis studies collection as an *open* system: new
// messages keep arriving while the network drains. Three arrival models
// cover the regimes the Hsu–Burke model cares about:
//
//  * Bernoulli(rate)  — at most one arrival per phase, the exact input
//    process of the paper's model 1/4 analysis (E15 measures the Thm 4.15
//    domination under it);
//  * Poisson(rate)    — unbounded batch sizes via inverse-CDF sampling on
//    a single uniform draw per phase, so the stream is a pure function of
//    the split RNG stream it is constructed with;
//  * MMPP on–off      — a two-state Markov-modulated Poisson process: a
//    per-phase coin moves the modulating chain between an `off` state
//    (mean `rate`) and an `on` burst state (mean `on_rate`), and the
//    phase's batch is Poisson with the current state's mean. The
//    stationary mean rate is the p_on/p_off-weighted mixture.
//
// Every process consumes a deterministic pattern of draws per phase
// (MMPP: one switch draw + one arrival draw; the others: one arrival
// draw), so two runs with the same seed see byte-identical arrival
// streams regardless of --jobs or wall-clock — the same discipline every
// other driver in this tree follows.

#include <cstdint>
#include <string>

#include "support/rng.h"

namespace radiomc::service {

enum class ArrivalKind : std::uint8_t { kBernoulli, kPoisson, kMmpp };

const char* to_string(ArrivalKind k) noexcept;

/// Parsed description of an arrival process; see `parse` for the CLI
/// grammar. All rates are mean arrivals per collection phase.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kBernoulli;
  double rate = 0.5;     ///< Bernoulli p / Poisson mean / MMPP off-state mean
  double on_rate = 0.0;  ///< MMPP only: mean while the burst state is on
  double p_on = 0.0;     ///< MMPP only: P[off -> on] per phase
  double p_off = 0.0;    ///< MMPP only: P[on -> off] per phase

  /// Throws std::invalid_argument with a specific message when the spec is
  /// contradictory (Bernoulli rate outside (0,1), nonpositive Poisson mean,
  /// MMPP switch probabilities outside (0,1], ...).
  void validate() const;

  /// Long-run mean arrivals per phase (the offered load lambda): the rate
  /// itself for Bernoulli/Poisson, the stationary mixture for MMPP.
  double mean_rate() const noexcept;

  /// `--arrival` grammar: "bernoulli:RATE", "poisson:RATE", or
  /// "mmpp:OFF_RATE:ON_RATE:P_ON:P_OFF". Throws std::invalid_argument
  /// naming the malformed field; the parsed spec is validate()d.
  static ArrivalSpec parse(const std::string& text);

  /// One-line human-readable form for run reports.
  std::string describe() const;
};

/// The process itself: one `step()` per phase returns that phase's batch
/// size. Owns its RNG stream (drivers pass `master.split(tag)`), so the
/// stream never interleaves with station or fault randomness.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, Rng rng);

  /// Arrivals for the next phase.
  std::uint32_t step();

  /// MMPP only: whether the modulating chain is currently bursting.
  bool bursting() const noexcept { return on_; }

 private:
  std::uint32_t draw_poisson(double mean);

  ArrivalSpec spec_;
  Rng rng_;
  bool on_ = false;  ///< MMPP modulating state; starts off
};

}  // namespace radiomc::service

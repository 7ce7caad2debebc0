#include "health/rules.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "support/util.h"

namespace radiomc::health {

namespace {

[[noreturn]] void bad(const std::string& msg) {
  throw std::invalid_argument("alert rules: " + msg);
}

double parse_num(std::string_view tok, std::string_view clause) {
  try {
    return parse_real(std::string(tok), "bad number");
  } catch (const std::invalid_argument& e) {
    bad(e.what() + (" in '" + std::string(clause) + "'"));
  }
}

/// A count (stall windows, min count): a positive integer written in
/// plain decimal digits.
std::uint64_t parse_count(std::string_view tok, std::string_view clause,
                          const std::string& what) {
  const double v = parse_num(tok, clause);
  if (v < 1.0 || v != std::floor(v))
    bad(what + " must be a positive integer in '" + std::string(clause) +
        "'");
  try {
    return parse_unsigned(std::string(tok), what);
  } catch (const std::invalid_argument& e) {
    bad(e.what() + (" in '" + std::string(clause) + "'"));
  }
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

Rule default_rule(RuleKind k) {
  Rule r;
  r.kind = k;
  switch (k) {
    case RuleKind::kThroughput:
      r.trip = 0.90;
      r.clear = 0.95;
      break;
    case RuleKind::kSojourn:
      r.trip = 3.0;
      r.clear = 2.5;
      break;
    case RuleKind::kQueueGrowth:
      r.trip = 0.5;
      r.clear = 0.25;
      break;
    case RuleKind::kStall:
      r.min_count = 2;
      break;
    case RuleKind::kHotspot:
      r.trip = 0.5;
      r.clear = 0.25;
      r.min_count = 16;
      break;
    case RuleKind::kNeighbor:
      r.trip = 0.9;
      r.clear = 0.75;
      r.min_count = 8;
      break;
  }
  return r;
}

constexpr RuleKind kAllKinds[] = {
    RuleKind::kThroughput, RuleKind::kSojourn, RuleKind::kQueueGrowth,
    RuleKind::kStall,      RuleKind::kHotspot, RuleKind::kNeighbor,
};

void validate(const Rule& r, std::string_view clause) {
  const std::string c(clause);
  switch (r.kind) {
    case RuleKind::kThroughput:
      if (!(r.trip > 0.0 && r.trip <= r.clear))
        bad("throughput needs 0 < trip <= clear in '" + c + "'");
      break;
    case RuleKind::kSojourn:
      if (!(r.clear > 0.0 && r.clear <= r.trip))
        bad("sojourn needs trip >= clear > 0 in '" + c + "'");
      break;
    case RuleKind::kQueueGrowth:
      if (!(r.trip > 0.0 && r.clear >= 0.0 && r.clear <= r.trip))
        bad("qgrowth needs trip >= clear >= 0 in '" + c + "'");
      break;
    case RuleKind::kStall:
      if (r.min_count < 1) bad("stall needs windows >= 1 in '" + c + "'");
      break;
    case RuleKind::kHotspot:
      if (!(r.trip > 0.0 && r.trip <= 1.0 && r.clear >= 0.0 &&
            r.clear <= r.trip) ||
          r.min_count < 1)
        bad("hotspot needs 0 < clear <= share <= 1 and min >= 1 in '" + c +
            "'");
      break;
    case RuleKind::kNeighbor:
      if (!(r.trip > 0.0 && r.trip <= 1.0 && r.clear >= 0.0 &&
            r.clear <= r.trip) ||
          r.min_count < 1)
        bad("neighbor needs 0 < clear <= dom <= 1 and min >= 1 in '" + c +
            "'");
      break;
  }
}

std::string fmt(double v) {
  // Shortest clean decimal: the canonical spec must round-trip through
  // parse() and stay stable for golden tests.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string_view rule_name(RuleKind k) noexcept {
  switch (k) {
    case RuleKind::kThroughput: return "throughput";
    case RuleKind::kSojourn: return "sojourn";
    case RuleKind::kQueueGrowth: return "qgrowth";
    case RuleKind::kStall: return "stall";
    case RuleKind::kHotspot: return "hotspot";
    case RuleKind::kNeighbor: return "neighbor";
  }
  return "?";
}

std::string RuleSet::canonical() const {
  std::string out;
  for (const Rule& r : rules) {
    if (!out.empty()) out += ',';
    out += rule_name(r.kind);
    switch (r.kind) {
      case RuleKind::kThroughput:
      case RuleKind::kSojourn:
      case RuleKind::kQueueGrowth:
        out += ':' + fmt(r.trip) + ':' + fmt(r.clear);
        break;
      case RuleKind::kStall:
        out += ':' + std::to_string(r.min_count);
        break;
      case RuleKind::kHotspot:
      case RuleKind::kNeighbor:
        out += ':' + fmt(r.trip) + ':' + fmt(r.clear) + ':' +
               std::to_string(r.min_count);
        break;
    }
  }
  return out;
}

RuleSet RuleSet::parse(std::string_view spec) {
  if (spec.empty()) bad("empty spec");
  RuleSet set;
  const std::vector<std::string_view> clauses = split(spec, ',');
  bool saw_default = false;
  for (std::string_view clause : clauses) {
    if (clause.empty()) bad("empty clause in '" + std::string(spec) + "'");
    const std::vector<std::string_view> toks = split(clause, ':');
    const std::string_view name = toks[0];
    if (name == "default") {
      if (toks.size() > 1)
        bad("'default' takes no parameters in '" + std::string(clause) +
            "'");
      saw_default = true;
      for (RuleKind k : kAllKinds) set.rules.push_back(default_rule(k));
      continue;
    }
    Rule r;
    std::size_t max_params = 0;
    if (name == "throughput") {
      r = default_rule(RuleKind::kThroughput);
      max_params = 2;
    } else if (name == "sojourn") {
      r = default_rule(RuleKind::kSojourn);
      max_params = 2;
    } else if (name == "qgrowth") {
      r = default_rule(RuleKind::kQueueGrowth);
      max_params = 2;
    } else if (name == "stall") {
      r = default_rule(RuleKind::kStall);
      max_params = 1;
    } else if (name == "hotspot") {
      r = default_rule(RuleKind::kHotspot);
      max_params = 3;
    } else if (name == "neighbor") {
      r = default_rule(RuleKind::kNeighbor);
      max_params = 3;
    } else {
      bad("unknown rule '" + std::string(name) + "'");
    }
    if (toks.size() - 1 > max_params)
      bad("too many parameters in '" + std::string(clause) + "'");
    if (r.kind == RuleKind::kStall) {
      if (toks.size() > 1)
        r.min_count = parse_count(toks[1], clause, "stall windows");
    } else {
      if (toks.size() > 1) r.trip = parse_num(toks[1], clause);
      if (toks.size() > 2) r.clear = parse_num(toks[2], clause);
      if (toks.size() > 3)
        r.min_count = parse_count(toks[3], clause, "min count");
    }
    validate(r, clause);
    set.rules.push_back(r);
  }
  if (saw_default && set.rules.size() != std::size(kAllKinds))
    bad("'default' cannot be combined with other rules");
  for (std::size_t i = 0; i < set.rules.size(); ++i)
    for (std::size_t j = i + 1; j < set.rules.size(); ++j)
      if (set.rules[i].kind == set.rules[j].kind)
        bad("duplicate rule '" +
            std::string(rule_name(set.rules[i].kind)) + "'");
  return set;
}

RuleEngine::RuleEngine(RuleSet rules)
    : rules_(std::move(rules)), state_(rules_.rules.size()) {}

std::uint64_t RuleEngine::active() const noexcept {
  std::uint64_t n = 0;
  for (const State& s : state_)
    if (s.tripped) ++n;
  return n;
}

std::vector<Transition> RuleEngine::evaluate(const WindowStats& w,
                                             const FlightRecorder& rec) {
  std::vector<Transition> out;
  auto emit = [&](std::size_t i, bool trip, double value, double threshold,
                  std::string detail) {
    state_[i].tripped = trip;
    if (trip)
      ++trips_;
    else
      ++clears_;
    out.push_back({rules_.rules[i].kind, trip, value, threshold,
                   std::move(detail)});
  };

  for (std::size_t i = 0; i < rules_.rules.size(); ++i) {
    const Rule& r = rules_.rules[i];
    State& st = state_[i];
    switch (r.kind) {
      case RuleKind::kThroughput: {
        if (w.offered_rate <= 0.0 || w.eval_phases == 0) break;
        // Cumulative rate over the whole post-warmup horizon, judged with
        // a 3-sigma Poisson slack (sd of a rate estimate over p phases is
        // sqrt(lambda/p)). Early windows carry a wide slack and cannot
        // false-trip; a sustained deficit — overload pins the rate at mu —
        // grows linearly while the slack decays, so it trips and stays.
        const double phases = static_cast<double>(w.eval_phases);
        const double rate =
            static_cast<double>(w.eval_delivered) / phases;
        const double slack = 3.0 * std::sqrt(w.offered_rate / phases);
        if (!st.tripped && rate < r.trip * w.offered_rate - slack)
          emit(i, true, rate, r.trip * w.offered_rate - slack, "");
        else if (st.tripped && rate >= r.clear * w.offered_rate - slack)
          emit(i, false, rate, r.clear * w.offered_rate - slack, "");
        break;
      }
      case RuleKind::kSojourn: {
        // No finite Thm 4.15 envelope above saturation, and no window mean
        // without a delivery: the rule idles, holding its latched state.
        if (!std::isfinite(w.envelope_phases) || w.delivered == 0) break;
        const double v = w.mean_sojourn;
        if (!st.tripped && v > r.trip * w.envelope_phases)
          emit(i, true, v, r.trip * w.envelope_phases, "");
        else if (st.tripped && v <= r.clear * w.envelope_phases)
          emit(i, false, v, r.clear * w.envelope_phases, "");
        break;
      }
      case RuleKind::kQueueGrowth: {
        if (w.offered_rate <= 0.0 || w.phases == 0) break;
        const double slope = (static_cast<double>(w.in_system_end) -
                              static_cast<double>(w.in_system_begin)) /
                             static_cast<double>(w.phases);
        if (!st.tripped && slope >= r.trip * w.offered_rate)
          emit(i, true, slope, r.trip * w.offered_rate, "");
        else if (st.tripped && slope < r.clear * w.offered_rate)
          emit(i, false, slope, r.clear * w.offered_rate, "");
        break;
      }
      case RuleKind::kStall: {
        if (w.delivered == 0 && w.in_system_end > 0)
          ++st.consecutive;
        else
          st.consecutive = 0;
        if (!st.tripped && st.consecutive >= r.min_count)
          emit(i, true, static_cast<double>(st.consecutive),
               static_cast<double>(r.min_count), "");
        else if (st.tripped && w.delivered > 0)
          emit(i, false, static_cast<double>(w.delivered),
               static_cast<double>(r.min_count), "");
        break;
      }
      case RuleKind::kHotspot: {
        const std::vector<std::uint64_t>& per_level =
            rec.window_level_collisions();
        const std::uint64_t total = rec.window_collisions();
        std::uint64_t peak = 0;
        std::size_t peak_level = 0;
        for (std::size_t l = 0; l < per_level.size(); ++l)
          if (per_level[l] > peak) {
            peak = per_level[l];
            peak_level = l;
          }
        const double share =
            total == 0 ? 0.0
                       : static_cast<double>(peak) /
                             static_cast<double>(total);
        if (!st.tripped && total >= r.min_count && share >= r.trip)
          emit(i, true, share, r.trip,
               "level=" + std::to_string(peak_level));
        else if (st.tripped && (total < r.min_count || share < r.clear))
          emit(i, false, share, r.clear, "");
        break;
      }
      case RuleKind::kNeighbor: {
        // Receiver-major key order lets one linear scan of the window map
        // produce per-receiver sender histograms deterministically.
        const auto& pairs = rec.window_pairs();
        const auto& ever = rec.pairs_ever();
        double worst_dom = 0.0;
        std::uint64_t silent_pairs = 0;
        std::string detail;
        auto it = pairs.begin();
        while (it != pairs.end()) {
          const NodeId recv = static_cast<NodeId>(it->first >> 32);
          std::uint64_t total = 0;
          std::uint64_t peak = 0;
          NodeId peak_sender = 0;
          std::uint64_t distinct_now = 0;
          auto row_end = it;
          for (; row_end != pairs.end() &&
                 static_cast<NodeId>(row_end->first >> 32) == recv;
               ++row_end) {
            total += row_end->second;
            ++distinct_now;
            if (row_end->second > peak) {
              peak = row_end->second;
              peak_sender = static_cast<NodeId>(row_end->first);
            }
          }
          if (total >= r.min_count) {
            // Chattering: one sender dominating a node that historically
            // hears several (a single-parent chain node trivially hears
            // one sender; that is topology, not pathology). Silent: a
            // historical sender at zero this window, gated on its share —
            // it only counts when share * window total >= min, i.e. the
            // peer owed enough receptions that zero is an outage rather
            // than ordinary arrival noise.
            std::uint64_t distinct_ever = 0;
            std::uint64_t ever_total = 0;
            const auto row_begin =
                ever.lower_bound(FlightRecorder::pair_key(recv, 0));
            auto ever_end = row_begin;
            for (; ever_end != ever.end() &&
                   static_cast<NodeId>(ever_end->first >> 32) == recv;
                 ++ever_end) {
              ++distinct_ever;
              ever_total += ever_end->second;
            }
            NodeId silent_peer = 0;
            bool have_silent = false;
            for (auto ev = row_begin; ev != ever_end; ++ev) {
              if (pairs.find(ev->first) != pairs.end()) continue;
              const double expected =
                  static_cast<double>(ev->second) /
                  static_cast<double>(ever_total) *
                  static_cast<double>(total);
              if (expected >= static_cast<double>(r.min_count) &&
                  !have_silent) {
                have_silent = true;
                silent_peer = static_cast<NodeId>(ev->first);
              }
            }
            const double dom = static_cast<double>(peak) /
                               static_cast<double>(total);
            if (distinct_ever >= 2 && dom > worst_dom) {
              worst_dom = dom;
              if (dom >= r.trip && detail.empty())
                detail = "chatter node=" + std::to_string(recv) +
                         " peer=" + std::to_string(peak_sender);
            }
            if (have_silent) {
              ++silent_pairs;
              if (detail.empty())
                detail = "silent node=" + std::to_string(recv) +
                         " peer=" + std::to_string(silent_peer);
            }
            (void)distinct_now;
          }
          it = row_end;
        }
        const bool offending = silent_pairs > 0 || worst_dom >= r.trip;
        if (!st.tripped && offending)
          emit(i, true, worst_dom, r.trip, detail);
        else if (st.tripped && silent_pairs == 0 && worst_dom < r.clear)
          emit(i, false, worst_dom, r.clear, "");
        break;
      }
    }
  }
  return out;
}

}  // namespace radiomc::health

// The Garg-Könemann driver shared by the optimal max concurrent flow solver
// (flow/mcf.cc) and the path-restricted one (flow/restricted.cc); only those
// two include it. A solver hands Driver::run() two steps:
//   - route_phase(): route one phase through State::ship(); false if some
//     commodity turns out to be disconnected;
//   - min_lengths(): every commodity's minimum path length at the current
//     lengths, in commodity order.
// The Driver owns the rest: option validation, the degenerate exits, the
// "<solver>.solves"/"<solver>.phases"/"<solver>.undecided" counters and the
// solve span, the certified primal lambda, the dual bound, and the stopping
// policy. Each phase runs route, primal, decide above, dual bound, decide
// below, then the gap and plateau rules; a final dual bound ends the run.
// The optimal solver relies on that order to reuse a dual sweep in the next
// round.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "flow/mcf.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jf::flow::gk {

// GK state over directed arcs that all have capacity `cap`.
struct State {
  State(std::size_t num_arcs, std::span<const Commodity> cs, const McfOptions& opts)
      : eps(opts.epsilon),
        cap(opts.link_capacity),
        len(num_arcs, gk_initial_length(num_arcs, eps, cap)),
        load(num_arcs, 0.0),
        routed(cs.size(), 0.0) {
    for (const Commodity& c : cs) demand.push_back(c.demand);
  }

  // Ships f units of commodity j along `path` (arc ids).
  void ship(std::span<const int> path, std::size_t j, double f) {
    for (int arc : path) {
      load[arc] += f;
      len[arc] *= 1.0 + eps * f / cap;
    }
    routed[j] += f;
  }

  double eps;
  double cap;
  std::vector<double> demand;  // per commodity, all positive
  std::vector<double> len;     // per arc
  std::vector<double> load;    // per arc
  std::vector<double> routed;  // per commodity
};

// A solver's error-message prefix and telemetry; the span names must be
// string literals (spans store the pointers).
struct Solver {
  const char* name;
  const char* span;
  const char* span_category;
  obs::Counter& solves;
  obs::Counter& phases;
  obs::Counter& undecided;  // decide-mode solves that end with neither flag
};

class Driver {
 public:
  // Validates `opts`, then counts one solve and opens the solve span.
  Driver(const Solver& solver, const McfOptions& opts)
      : solver_(start(solver, opts)), opts_(opts), span_(solver.span, solver.span_category) {}

  obs::Span& span() { return span_; }

  // The commodities with positive demand, in input order, once every
  // endpoint has been checked.
  std::vector<Commodity> positive_demand(const graph::Graph& g,
                                         std::span<const Commodity> commodities) const {
    const auto valid = [&](int v) { return v >= 0 && v < g.num_nodes(); };
    std::vector<Commodity> cs;
    for (const Commodity& c : commodities) {
      require(solver_, valid(c.src_switch) && valid(c.dst_switch) && c.src_switch != c.dst_switch,
              "bad commodity endpoints");
      if (c.demand > 0) cs.push_back(c);
    }
    return cs;
  }

  // Records the commodity count on the span, then ends a degenerate solve:
  // no positive demand admits any lambda (reported as 1e9), and without
  // arcs nothing is routable.
  std::optional<McfResult> degenerate(std::size_t num_commodities, std::size_t num_arcs) {
    span_.arg("commodities", static_cast<std::int64_t>(num_commodities));
    if (num_commodities == 0) {
      result_.lambda = result_.lambda_upper = 1e9;
      result_.decided_above = deciding();
      return finish();
    }
    if (num_arcs == 0) return disconnected();
    return std::nullopt;
  }

  // A commodity with no path admits no concurrent flow at all.
  McfResult disconnected() {
    result_.lambda = result_.lambda_upper = 0.0;
    result_.decided_below = deciding();
    return finish();
  }

  template <class RoutePhase, class MinLengths>
  McfResult run(const State& s, RoutePhase&& route_phase, MinLengths&& min_lengths) {
    constexpr double kRelativeDualGap = 0.05;  // stop when UB <= LB * (1+gap)
    const int dual_check_every = std::max(4, opts_.convergence_window);
    double lambda_at_last_check = 0.0;
    McfResult& r = result_;
    for (int phase = 0; phase < opts_.max_phases; ++phase) {
      if (!route_phase()) return disconnected();
      r.phases = phase + 1;
      solver_.phases.increment();
      r.lambda = std::max(r.lambda, primal_lambda(s));

      if (deciding() && r.lambda >= opts_.decide_threshold) {
        r.decided_above = true;
        return finish();
      }
      if (!deciding() && (phase + 1) % dual_check_every != 0) continue;
      r.lambda_upper = std::min(r.lambda_upper, dual_upper(s, min_lengths()));
      if (deciding() && r.lambda_upper < opts_.decide_threshold) {
        r.decided_below = true;
        return finish();
      }
      if (r.lambda_upper <= r.lambda * (1.0 + kRelativeDualGap)) break;
      // Plateau detection: the certified primal improves ~lambda/phase per
      // phase late in the run; once per-window gains drop below tol the
      // extra phases buy nothing (the dual gap is dominated by GK's epsilon
      // bias, not by unconverged flow).
      if (!deciding() && phase + 1 >= 2 * dual_check_every &&
          r.lambda - lambda_at_last_check < opts_.convergence_tol * std::max(r.lambda, 1e-9)) {
        break;
      }
      lambda_at_last_check = r.lambda;
    }
    r.lambda_upper = std::min(r.lambda_upper, dual_upper(s, min_lengths()));
    return finish();
  }

 private:
  static const Solver& start(const Solver& solver, const McfOptions& opts) {
    check_mcf_options(opts);
    solver.solves.increment();
    return solver;
  }

  static void require(const Solver& solver, bool ok, const char* what) {
    if (!ok) check(false, std::string(solver.name) + ": " + what);
  }

  bool deciding() const { return opts_.decide_threshold >= 0; }

  // Every exit ends here. A decide-mode solve also records whether it
  // decided; one that ran out of phases, or met the gap or plateau rule,
  // before either certificate crossed the threshold counts as undecided.
  McfResult finish() {
    span_.arg("phases", result_.phases);
    if (deciding()) {
      const bool decided = result_.decided_above || result_.decided_below;
      span_.arg("decided", decided);
      if (!decided) solver_.undecided.increment();
    }
    return result_;
  }

  // Certified primal value: scale all accumulated flow down by the worst
  // arc overload; the result is feasible, so lambda >= min_j routed_j/(ovl*d_j).
  static double primal_lambda(const State& s) {
    double overload = 0.0;
    for (double load : s.load) overload = std::max(overload, load / s.cap);
    if (overload <= 0) return 0.0;
    double lam = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < s.demand.size(); ++j) {
      lam = std::min(lam, s.routed[j] / overload / s.demand[j]);
    }
    return lam;
  }

  // LP-duality upper bound: lambda* <= D(l)/alpha(l) for any lengths l, with
  // D = sum_e len*cap and alpha = sum_j demand_j * dist_j(l), summed in
  // commodity order. Any non-finite dist_j bounds nothing.
  static double dual_upper(const State& s, std::span<const double> dist) {
    double D = 0.0;
    for (double len : s.len) D += len * s.cap;
    double alpha = 0.0;
    for (std::size_t j = 0; j < s.demand.size(); ++j) {
      if (!std::isfinite(dist[j])) return std::numeric_limits<double>::infinity();
      alpha += s.demand[j] * dist[j];
    }
    return alpha > 0 ? D / alpha : std::numeric_limits<double>::infinity();
  }

  const Solver& solver_;
  const McfOptions& opts_;
  obs::Span span_;
  McfResult result_;
};

}  // namespace jf::flow::gk

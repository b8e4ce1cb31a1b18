// Maximum concurrent multi-commodity flow via Garg-Könemann / Fleischer.
//
// The paper measures a topology's raw capacity by solving the splittable
// multi-commodity flow LP with CPLEX: maximize the fraction lambda such that
// every commodity ships lambda * demand simultaneously. We replace the
// proprietary solver with the classic width-independent (1 - eps)
// approximation: maintain exponential arc lengths, repeatedly route each
// commodity along its currently-shortest path, and scale the accumulated
// flow by the worst arc overload. The scaled flow is *feasible by
// construction* (a certified primal lower bound); a matching dual upper
// bound D(l)/alpha(l) is tracked so callers can make certified
// above/below-threshold decisions (used by the binary search for "servers
// supported at full capacity", Fig. 2(c)/11).
//
// One driver, flow/gk.h, runs the phases, both bounds and the stopping
// policy for this solver and the path-restricted one (flow/restricted.h).
// This solver keeps its routing: each phase runs epoch-batched rounds
// (Fleischer-style) that freeze the arc lengths, find every active
// commodity's shortest path in a parallel Dijkstra sweep — one search per
// distinct source switch, stopping once its targets settle, on workers
// borrowed from an optional parallel::WorkBudget — and then apply flow in
// canonical commodity order on one thread. A dual bound's sweep is reused
// by the round that follows it. Both certificates hold for *any* length
// function, and the round schedule is independent of the worker count, so
// results are bit-identical at every thread count.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "traffic/traffic.h"

namespace jf::flow {

using traffic::Commodity;

struct McfOptions {
  double epsilon = 0.08;       // GK accuracy parameter (arc-length growth rate)
  int max_phases = 250;        // hard cap on commodity sweeps
  double convergence_tol = 3e-3;  // stop when lambda gains < tol over a window
  int convergence_window = 10;
  // When >= 0: stop early once lambda_lower >= threshold (decided above) or
  // lambda_upper < threshold (decided below).
  double decide_threshold = -1.0;
  double link_capacity = 1.0;  // capacity per direction per cable, NIC units
};

// Range-checks the options: epsilon in (0, 0.5), link_capacity > 0,
// max_phases >= 1, convergence_window >= 1, convergence_tol >= 0. Throws
// std::invalid_argument naming the field as a scenario file spells it
// ("mcf.max_phases must be >= 1"), with no source locator. Both solvers
// call it on entry, and eval::validate_scenario calls it before any cell
// runs.
void check_mcf_options(const McfOptions& opts);

struct McfResult {
  double lambda = 0.0;        // certified feasible concurrent fraction
  double lambda_upper = std::numeric_limits<double>::infinity();  // dual bound
  int phases = 0;
  bool decided_above = false;  // only with decide_threshold >= 0
  bool decided_below = false;
};

// Initial GK arc length delta / capacity with delta = (m/(1-eps))^(-1/eps),
// evaluated in log space: the direct pow underflows to zero for small
// epsilon on large graphs (epsilon ~ 0.01 at a few thousand arcs), which
// would zero every arc length, make Dijkstra tie-break arbitrarily, and
// degenerate the dual bound to D = 0. The result is clamped to the smallest
// normal double — GK only needs the initial lengths to be a uniform
// positive scale, so the clamp preserves the algorithm exactly.
double gk_initial_length(std::size_t num_arcs, double epsilon, double capacity);

// Solves max concurrent flow for switch-level commodities on the switch
// graph; every cable is two directed arcs of `link_capacity` each.
// Commodities with zero demand are ignored; an empty commodity set yields
// lambda = infinity clamped to 1e9. If any positive-demand commodity is
// disconnected (including on a graph with no links), lambda = lambda_upper
// = 0 and, with decide_threshold >= 0, decided_below is set.
//
// `budget` (optional) lends extra worker threads to the per-round Dijkstra
// sweeps (at most one per distinct source); results are bit-identical with
// or without it.
McfResult max_concurrent_flow(const graph::Graph& g, std::span<const Commodity> commodities,
                              const McfOptions& opts = {},
                              parallel::WorkBudget* budget = nullptr);

}  // namespace jf::flow

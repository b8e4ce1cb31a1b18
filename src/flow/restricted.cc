#include "flow/restricted.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/traffic.h"

namespace jf::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One commodity with its allowed paths pre-resolved to directed link ids.
struct PathCommodity {
  double demand = 0.0;
  std::vector<std::vector<int>> paths;  // link-id sequences
};

struct Cheapest {
  std::size_t index = 0;
  double length = kInf;
};

// The cheapest allowed path under current arc lengths (first on ties).
// Prices every path of the set; `evals` counts them.
Cheapest cheapest(const PathCommodity& c, const std::vector<double>& len,
                  std::int64_t& evals) {
  Cheapest best;
  for (std::size_t p = 0; p < c.paths.size(); ++p) {
    double l = 0.0;
    for (int arc : c.paths[p]) l += len[arc];
    if (l < best.length) best = {p, l};
  }
  evals += static_cast<std::int64_t>(c.paths.size());
  return best;
}

}  // namespace

McfResult restricted_max_concurrent_flow(const graph::Graph& g,
                                         std::span<const traffic::Commodity> commodities,
                                         routing::PathProvider& routes,
                                         const McfOptions& opts) {
  check(opts.epsilon > 0 && opts.epsilon < 0.5,
        "restricted_max_concurrent_flow: epsilon in (0, 0.5)");
  check(opts.link_capacity > 0, "restricted_max_concurrent_flow: capacity must be positive");

  // Telemetry: exact, schedule-independent counts (the solve is serial).
  // path_evals counts allowed-path pricings, in the routing loop and in
  // the dual bound alike.
  static obs::Counter& obs_solves = obs::counter("restricted.solves");
  static obs::Counter& obs_phases = obs::counter("restricted.phases");
  static obs::Counter& obs_path_evals = obs::counter("restricted.path_evals");
  obs_solves.increment();
  obs::Span span("restricted.solve", "flow");
  McfResult result;
  std::int64_t path_evals = 0;
  // Every exit from here on reports its phase count.
  auto finish = [&]() {
    span.arg("phases", result.phases);
    obs_path_evals.add(path_evals);
    return result;
  };

  LinkIndex links(g);
  const std::size_t m = static_cast<std::size_t>(links.num_links());

  std::vector<PathCommodity> cs;
  for (const auto& c : commodities) {
    check(c.src_switch >= 0 && c.src_switch < g.num_nodes() && c.dst_switch >= 0 &&
              c.dst_switch < g.num_nodes() && c.src_switch != c.dst_switch,
          "restricted_max_concurrent_flow: bad commodity endpoints");
    if (c.demand <= 0) continue;
    PathCommodity pc;
    pc.demand = c.demand;
    for (const auto& node_path : routes.paths(c.src_switch, c.dst_switch)) {
      pc.paths.push_back(links.path_links(node_path));
    }
    if (pc.paths.empty()) {
      // The scheme offers this commodity no route at all: zero concurrent flow.
      result.lambda = 0.0;
      result.lambda_upper = 0.0;
      result.decided_below = opts.decide_threshold >= 0;
      return finish();
    }
    cs.push_back(std::move(pc));
  }
  span.arg("commodities", static_cast<std::int64_t>(cs.size()));
  if (cs.empty()) {
    result.lambda = 1e9;
    result.lambda_upper = 1e9;
    result.decided_above = opts.decide_threshold >= 0;
    return finish();
  }
  if (m == 0) return finish();

  const double eps = opts.epsilon;
  // Log-space initial length: the naive pow underflows for small epsilon on
  // large path sets (see gk_initial_length).
  std::vector<double> len(m, gk_initial_length(m, eps, opts.link_capacity));
  std::vector<double> load(m, 0.0);
  std::vector<double> routed(cs.size(), 0.0);

  auto primal_lambda = [&]() {
    double overload = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      overload = std::max(overload, load[i] / opts.link_capacity);
    }
    if (overload <= 0) return 0.0;
    double lam = kInf;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      lam = std::min(lam, routed[j] / overload / cs[j].demand);
    }
    return lam;
  };

  // Dual bound over the restricted LP: D(l) / sum_j demand_j * minlen_j(l),
  // where the min ranges over the commodity's allowed paths.
  auto dual_upper = [&]() {
    double D = 0.0;
    for (std::size_t i = 0; i < m; ++i) D += len[i] * opts.link_capacity;
    double alpha = 0.0;
    for (const auto& c : cs) alpha += c.demand * cheapest(c, len, path_evals).length;
    return alpha > 0 ? D / alpha : kInf;
  };

  const int dual_check_every = std::max(4, opts.convergence_window);
  double lambda_at_last_check = 0.0;

  for (int phase = 0; phase < opts.max_phases; ++phase) {
    for (std::size_t j = 0; j < cs.size(); ++j) {
      PathCommodity& c = cs[j];
      double remaining = c.demand;
      while (remaining > 1e-12) {
        const auto& path = c.paths[cheapest(c, len, path_evals).index];
        // Uniform arc capacities: the bottleneck of any path is link_capacity.
        const double f = std::min(remaining, opts.link_capacity);
        for (int arc : path) {
          load[arc] += f;
          len[arc] *= 1.0 + eps * f / opts.link_capacity;
        }
        routed[j] += f;
        remaining -= f;
      }
    }
    result.phases = phase + 1;
    obs_phases.increment();
    result.lambda = std::max(result.lambda, primal_lambda());

    if (opts.decide_threshold >= 0 && result.lambda >= opts.decide_threshold) {
      result.decided_above = true;
      return finish();
    }
    const bool check_dual =
        opts.decide_threshold >= 0 || (phase + 1) % dual_check_every == 0;
    if (check_dual) {
      result.lambda_upper = std::min(result.lambda_upper, dual_upper());
      if (opts.decide_threshold >= 0 && result.lambda_upper < opts.decide_threshold) {
        result.decided_below = true;
        return finish();
      }
      constexpr double kRelativeDualGap = 0.05;
      if (result.lambda_upper <= result.lambda * (1.0 + kRelativeDualGap)) break;
      if (opts.decide_threshold < 0 && phase + 1 >= 2 * dual_check_every &&
          result.lambda - lambda_at_last_check <
              opts.convergence_tol * std::max(result.lambda, 1e-9)) {
        break;
      }
      lambda_at_last_check = result.lambda;
    }
  }
  result.lambda_upper = std::min(result.lambda_upper, dual_upper());
  return finish();
}

double restricted_permutation_throughput(const topo::Topology& topo,
                                         routing::PathProvider& routes, Rng& rng,
                                         const McfOptions& opts) {
  check(topo.num_servers() >= 2, "restricted_permutation_throughput: need >= 2 servers");
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto commodities = traffic::to_switch_commodities(topo, tm);
  auto result = restricted_max_concurrent_flow(topo.switches(), commodities, routes, opts);
  return std::min(1.0, result.lambda);
}

}  // namespace jf::flow

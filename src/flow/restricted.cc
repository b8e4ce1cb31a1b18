#include "flow/restricted.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "flow/gk.h"
#include "flow/link_index.h"
#include "obs/metrics.h"

namespace jf::flow {

namespace {

// One commodity's allowed paths, each resolved to directed link ids.
using PathSet = std::vector<std::vector<int>>;

struct Cheapest {
  std::size_t index = 0;
  double length = std::numeric_limits<double>::infinity();
};

// The cheapest allowed path under current arc lengths (first on ties).
// Prices every path of the set; `evals` counts them.
Cheapest cheapest(const PathSet& paths, const std::vector<double>& len, std::int64_t& evals) {
  Cheapest best;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    double l = 0.0;
    for (int arc : paths[p]) l += len[arc];
    if (l < best.length) best = {p, l};
  }
  evals += static_cast<std::int64_t>(paths.size());
  return best;
}

}  // namespace

McfResult restricted_max_concurrent_flow(const graph::Graph& g,
                                         std::span<const traffic::Commodity> commodities,
                                         routing::PathProvider& routes,
                                         const McfOptions& opts) {
  // Telemetry: exact, schedule-independent counts (the solve is serial).
  // path_evals counts allowed-path pricings, in the routing loop and in
  // the dual bound alike.
  static const gk::Solver kSolver{"restricted_max_concurrent_flow", "restricted.solve", "flow",
                                  obs::counter("restricted.solves"),
                                  obs::counter("restricted.phases"),
                                  obs::counter("restricted.undecided")};
  static obs::Counter& obs_path_evals = obs::counter("restricted.path_evals");
  gk::Driver gk(kSolver, opts);

  LinkIndex links(g);
  const std::size_t m = static_cast<std::size_t>(links.num_links());

  const std::vector<traffic::Commodity> cs = gk.positive_demand(g, commodities);
  std::vector<PathSet> allowed;
  for (const auto& c : cs) {
    PathSet paths;
    for (const auto& node_path : routes.paths(c.src_switch, c.dst_switch)) {
      paths.push_back(links.path_links(node_path));
    }
    // The scheme offers this commodity no route at all: zero concurrent flow.
    if (paths.empty()) return gk.disconnected();
    allowed.push_back(std::move(paths));
  }
  if (auto r = gk.degenerate(cs.size(), m)) return *r;

  gk::State s(m, cs, opts);
  std::int64_t path_evals = 0;
  // Sequential schedule: each commodity in turn ships its whole demand, one
  // link capacity (the bottleneck of any path) at a time, on its currently
  // cheapest allowed path.
  auto route_phase = [&]() {
    for (std::size_t j = 0; j < cs.size(); ++j) {
      double remaining = s.demand[j];
      while (remaining > 1e-12) {
        const auto& path = allowed[j][cheapest(allowed[j], s.len, path_evals).index];
        const double f = std::min(remaining, s.cap);
        s.ship(path, j, f);
        remaining -= f;
      }
    }
    return true;
  };
  std::vector<double> min_len(cs.size());
  auto min_lengths = [&]() -> std::span<const double> {
    for (std::size_t j = 0; j < cs.size(); ++j) {
      min_len[j] = cheapest(allowed[j], s.len, path_evals).length;
    }
    return min_len;
  };

  const McfResult result = gk.run(s, route_phase, min_lengths);
  obs_path_evals.add(path_evals);
  return result;
}

}  // namespace jf::flow

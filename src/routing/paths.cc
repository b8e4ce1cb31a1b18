#include "routing/paths.h"

#include "common/check.h"
#include "common/parallel.h"
#include "graph/ecmp.h"
#include "graph/yen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jf::routing {

namespace {

using PathSet = std::vector<std::vector<graph::NodeId>>;

// The one place path sets are computed; counts every set it returns.
PathSet compute(const graph::SortedAdjacency& adj, graph::NodeId s, graph::NodeId t,
                const RoutingOptions& opts, graph::SearchScratch& sc) {
  static obs::Counter& obs_pairs = obs::counter("routing.pairs");
  static obs::Counter& obs_paths = obs::counter("routing.paths");
  static obs::Counter& obs_steps = obs::counter("routing.dfs_steps");
  static obs::Counter& obs_fallbacks = obs::counter("routing.ksp_fallbacks");
  check(opts.width >= 1, "PathCache: width must be >= 1");
  const std::int64_t steps_before = sc.dfs_steps;
  const std::int64_t fallbacks_before = sc.ksp_fallbacks;
  PathSet out;
  switch (opts.scheme) {
    case Scheme::kEcmp:
      out = graph::equal_cost_paths(adj, s, t, static_cast<std::size_t>(opts.width), sc);
      break;
    case Scheme::kKsp:
      out = graph::k_shortest_paths(adj, s, t, opts.width, sc);
      break;
  }
  obs_pairs.increment();
  obs_paths.add(static_cast<std::int64_t>(out.size()));
  obs_steps.add(sc.dfs_steps - steps_before);
  obs_fallbacks.add(sc.ksp_fallbacks - fallbacks_before);
  return out;
}

}  // namespace

std::size_t select_path(std::size_t num_paths, std::uint64_t flow_key) {
  check(num_paths >= 1, "select_path: empty path set");
  std::uint64_t x = flow_key + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % num_paths);
}

PathCache::PathCache(const graph::Graph& g, RoutingOptions opts) : adj_(g), opts_(opts) {}

const std::vector<std::vector<graph::NodeId>>& PathCache::paths(graph::NodeId s,
                                                                graph::NodeId t) {
  const std::uint64_t key = pack(s, t);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, compute(adj_, s, t, opts_, scratch_)).first;
  }
  return it->second;
}

void PathCache::warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
                     parallel::WorkBudget* budget) {
  obs::Span span("routing.warm", "routing");
  // One entry per uncached pair, reserved in first-listed (canonical) order.
  // Element pointers survive rehashing, and the workers below only write
  // the distinct path sets they point to, never the table.
  struct Job {
    graph::NodeId s, t;
    PathSet* paths;
  };
  std::vector<Job> todo;
  for (const auto& [s, t] : pairs) {
    auto [it, inserted] = cache_.try_emplace(pack(s, t));
    if (inserted) todo.push_back({s, t, &it->second});
  }
  const int n = static_cast<int>(todo.size());
  try {
    parallel::WorkerTeam team(budget, n - 1);
    std::vector<graph::SearchScratch> scratch(static_cast<std::size_t>(team.size() - 1));
    team.run(n, [&](int i, int slot) {
      graph::SearchScratch& sc =
          slot == 0 ? scratch_ : scratch[static_cast<std::size_t>(slot - 1)];
      const Job& job = todo[static_cast<std::size_t>(i)];
      *job.paths = compute(adj_, job.s, job.t, opts_, sc);
    });
  } catch (...) {
    // No half-warmed entry may pass for an unreachable pair.
    for (const Job& job : todo) cache_.erase(pack(job.s, job.t));
    throw;
  }
  std::int64_t paths = 0;
  for (const Job& job : todo) paths += static_cast<std::int64_t>(job.paths->size());
  span.arg("pairs", n);
  span.arg("paths", paths);
}

}  // namespace jf::routing

#include "routing/path_provider.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "graph/ecmp.h"
#include "graph/yen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jf::routing {

namespace {

constexpr std::string_view kSchemeNames[] = {"ecmp", "ksp"};

// True for ECMP, false for KSP; throws for any other scheme or width < 1.
bool resolve_ecmp(const RoutingSpec& spec) {
  check(spec.width >= 1, "PathProvider: width must be >= 1");
  const auto* it = std::find(std::begin(kSchemeNames), std::end(kSchemeNames), spec.scheme);
  check(it != std::end(kSchemeNames), "PathProvider: unknown routing scheme");
  return *it == "ecmp";
}

}  // namespace

std::string RoutingSpec::label() const { return scheme + "-" + std::to_string(width); }

std::size_t select_path(std::size_t num_paths, std::uint64_t flow_key) {
  check(num_paths >= 1, "select_path: empty path set");
  std::uint64_t x = flow_key + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % num_paths);
}

PathProvider::PathProvider(const graph::Graph& g, const RoutingSpec& spec)
    : ecmp_(resolve_ecmp(spec)), width_(spec.width), adj_(g) {}

PathSet PathProvider::compute(graph::NodeId s, graph::NodeId t, graph::SearchScratch& sc) const {
  static obs::Counter& obs_pairs = obs::counter("routing.pairs");
  static obs::Counter& obs_paths = obs::counter("routing.paths");
  static obs::Counter& obs_steps = obs::counter("routing.dfs_steps");
  static obs::Counter& obs_fallbacks = obs::counter("routing.ksp_fallbacks");
  const std::int64_t steps_before = sc.dfs_steps;
  const std::int64_t fallbacks_before = sc.ksp_fallbacks;
  PathSet out = ecmp_ ? graph::equal_cost_paths(adj_, s, t, static_cast<std::size_t>(width_), sc)
                      : graph::k_shortest_paths(adj_, s, t, width_, sc);
  obs_pairs.increment();
  obs_paths.add(static_cast<std::int64_t>(out.size()));
  obs_steps.add(sc.dfs_steps - steps_before);
  obs_fallbacks.add(sc.ksp_fallbacks - fallbacks_before);
  return out;
}

const PathSet& PathProvider::paths(graph::NodeId s, graph::NodeId t) {
  const std::uint64_t key = pack(s, t);
  auto it = cache_.find(key);
  if (it == cache_.end()) it = cache_.emplace(key, compute(s, t, scratch_)).first;
  return it->second;
}

void PathProvider::warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
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
      *job.paths = compute(job.s, job.t, sc);
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

Path PathProvider::route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key) {
  if (ecmp_) {
    // ECMP hardware forwards by per-hop hashing over the shortest-path DAG
    // (truncated to the way-width at each switch) — it never enumerates
    // end-to-end paths, so route() must not either. Concurrent callers each
    // get their own scratch; the sorted adjacency is shared read-only.
    if (s == t) return {s};
    graph::SearchScratch sc;
    return graph::ecmp_walk(adj_, s, t, flow_key, width_, sc);
  }
  const PathSet& ps = paths(s, t);
  if (ps.empty()) return {};
  return ps[select_path(ps.size(), flow_key)];
}

Path PathProvider::route_subflow(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key,
                                 int index) {
  check(index >= 0, "route_subflow: negative subflow index");
  // ECMP subflows are distinct flows to the hash: the caller mixes the
  // subflow index into flow_key, so the walk already decorrelates them.
  if (ecmp_) return route(s, t, flow_key);
  const PathSet& ps = paths(s, t);
  if (ps.empty()) return {};
  return ps[static_cast<std::size_t>(index) % ps.size()];
}

std::unique_ptr<PathProvider> make_path_provider(const graph::Graph& g,
                                                 const RoutingSpec& spec) {
  return std::make_unique<PathProvider>(g, spec);
}

std::span<const std::string_view> path_provider_schemes() { return kSchemeNames; }

}  // namespace jf::routing

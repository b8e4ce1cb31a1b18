#include "routing/path_provider.h"

#include <algorithm>

#include "common/check.h"
#include "graph/ecmp.h"

namespace jf::routing {

namespace {

// Indexed by Scheme.
constexpr std::string_view kSchemeNames[] = {"ecmp", "ksp"};
static_assert(kSchemeNames[static_cast<int>(Scheme::kEcmp)] == "ecmp" &&
              kSchemeNames[static_cast<int>(Scheme::kKsp)] == "ksp");

}  // namespace

std::string RoutingSpec::label() const { return scheme + "-" + std::to_string(width); }

PathProvider::PathProvider(const graph::Graph& g, RoutingOptions opts) : cache_(g, opts) {}

Path PathProvider::route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key) {
  if (!routes_via_paths()) {
    // ECMP hardware forwards by per-hop hashing over the shortest-path DAG
    // (truncated to the way-width at each switch) — it never enumerates
    // end-to-end paths, so route() must not either. Concurrent callers each
    // get their own scratch; the sorted adjacency is shared read-only.
    if (s == t) return {s};
    graph::SearchScratch sc;
    return graph::ecmp_walk(cache_.adjacency(), s, t, flow_key, cache_.options().width, sc);
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
  if (!routes_via_paths()) return route(s, t, flow_key);
  const PathSet& ps = paths(s, t);
  if (ps.empty()) return {};
  return ps[static_cast<std::size_t>(index) % ps.size()];
}

std::unique_ptr<PathProvider> make_path_provider(const graph::Graph& g,
                                                 const RoutingSpec& spec) {
  check(spec.width >= 1, "make_path_provider: width must be >= 1");
  const auto* it = std::find(std::begin(kSchemeNames), std::end(kSchemeNames), spec.scheme);
  check(it != std::end(kSchemeNames), "make_path_provider: unknown routing scheme");
  const auto scheme = static_cast<Scheme>(it - std::begin(kSchemeNames));
  return std::make_unique<PathProvider>(g, RoutingOptions{scheme, spec.width});
}

std::span<const std::string_view> path_provider_schemes() { return kSchemeNames; }

}  // namespace jf::routing

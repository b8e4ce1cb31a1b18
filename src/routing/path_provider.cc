#include "routing/path_provider.h"

#include <map>
#include <utility>

#include "common/check.h"
#include "graph/ecmp.h"

namespace jf::routing {

namespace {

// Shared base for the built-ins: a lazily filled PathCache supplies paths().
class CachedProvider : public PathProvider {
 public:
  CachedProvider(const graph::Graph& g, RoutingOptions opts) : cache_(g, opts) {}

  const PathSet& paths(graph::NodeId s, graph::NodeId t) override {
    return cache_.paths(s, t);
  }

  void warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
            parallel::WorkBudget* budget) override {
    cache_.warm(pairs, budget);
  }

  // Once every pair is cached the unordered_map is only ever probed, never
  // mutated, so concurrent lookups are safe. (Determinism audit: probes and
  // size() are this file's only unordered accesses — iteration order can
  // never escape; see the PathCache member note in routing/paths.h. The
  // provider registry below is a std::map precisely because
  // path_provider_schemes() *does* iterate it into user-visible output.)
  bool concurrent_after_warm() const override { return true; }

 protected:
  const graph::SortedAdjacency& adjacency() const { return cache_.adjacency(); }

 private:
  PathCache cache_;
};

class KspProvider final : public CachedProvider {
 public:
  KspProvider(const graph::Graph& g, int k)
      : CachedProvider(g, {Scheme::kKsp, k}), k_(k) {}

  std::string name() const override { return "ksp-" + std::to_string(k_); }

 private:
  int k_;
};

class EcmpProvider final : public CachedProvider {
 public:
  EcmpProvider(const graph::Graph& g, int width)
      : CachedProvider(g, {Scheme::kEcmp, width}), width_(width) {}

  std::string name() const override { return "ecmp-" + std::to_string(width_); }

  // ECMP hardware forwards by per-hop hashing over the shortest-path DAG
  // (truncated to the way-width at each switch) — it never enumerates
  // end-to-end paths, so route() must not either. Concurrent callers each
  // get their own scratch; the sorted adjacency is shared read-only.
  Path route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key) override {
    if (s == t) return {s};
    graph::SearchScratch sc;
    return graph::ecmp_walk(adjacency(), s, t, flow_key, width_, sc);
  }

  // Subflows are distinct flows to the hash: the caller mixes the subflow
  // index into flow_key, so the walk already decorrelates them.
  Path route_subflow(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key,
                     int /*index*/) override {
    return route(s, t, flow_key);
  }

  bool routes_via_paths() const override { return false; }

 private:
  int width_;
};

std::map<std::string, PathProviderFactory>& registry() {
  static std::map<std::string, PathProviderFactory> r;
  return r;
}

}  // namespace

std::string RoutingSpec::label() const { return scheme + "-" + std::to_string(width); }

void PathProvider::warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
                        parallel::WorkBudget* /*budget*/) {
  for (const auto& [s, t] : pairs) paths(s, t);
}

Path PathProvider::route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key) {
  const PathSet& ps = paths(s, t);
  if (ps.empty()) return {};
  return ps[select_path(ps.size(), flow_key)];
}

Path PathProvider::route_subflow(graph::NodeId s, graph::NodeId t,
                                 std::uint64_t /*flow_key*/, int index) {
  check(index >= 0, "route_subflow: negative subflow index");
  const PathSet& ps = paths(s, t);
  if (ps.empty()) return {};
  return ps[static_cast<std::size_t>(index) % ps.size()];
}

std::unique_ptr<PathProvider> make_path_provider(const graph::Graph& g,
                                                 const RoutingSpec& spec) {
  check(spec.width >= 1, "make_path_provider: width must be >= 1");
  if (spec.scheme == "ecmp") return std::make_unique<EcmpProvider>(g, spec.width);
  if (spec.scheme == "ksp") return std::make_unique<KspProvider>(g, spec.width);
  auto it = registry().find(spec.scheme);
  check(it != registry().end(), "make_path_provider: unknown routing scheme");
  return it->second(g, spec);
}

void register_path_provider(const std::string& scheme, PathProviderFactory factory) {
  check(!scheme.empty(), "register_path_provider: empty scheme name");
  check(scheme != "ecmp" && scheme != "ksp",
        "register_path_provider: cannot shadow a built-in scheme");
  registry()[scheme] = std::move(factory);
}

std::vector<std::string> path_provider_schemes() {
  std::vector<std::string> out = {"ecmp", "ksp"};
  for (const auto& [name, _] : registry()) out.push_back(name);
  return out;
}

}  // namespace jf::routing

// The routing interface every evaluation path consumes: the fluid
// (restricted-MCF) throughput model, the packet simulator, and path-diversity
// accounting.
//
// A PathProvider answers two questions about a switch pair:
//   * paths(s, t)   — the candidate path set the scheme would install
//                     (routing tables, diversity accounting, fluid models);
//   * route(s, t, flow_key) — the one path a given flow actually takes
//                     (packet simulation; ECMP realizes this by per-hop
//                     hashing over the shortest-path DAG, not by picking
//                     from an enumerated set).
//
// The schemes are the paper's two (ECMP-w, KSP-k), named by RoutingSpec and
// resolved only by make_path_provider.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "routing/paths.h"

namespace jf::routing {

using Path = std::vector<graph::NodeId>;
using PathSet = std::vector<Path>;

// Declarative routing scheme reference. `scheme` is one of
// path_provider_schemes().
struct RoutingSpec {
  std::string scheme = "ksp";
  int width = 8;  // ECMP ways / KSP k

  // Display name, e.g. "ksp-8".
  std::string label() const;
};

// One scheme's path sets and flow routes on one graph. Path sets come from
// a lazily filled PathCache. Once paths() (or warm()) has covered every
// pair that will later be queried, the cache is only ever probed, never
// grown, so every method is then safe to call concurrently on that pair
// set; the eval engine shares one warmed provider across the seed cells of
// a deterministic topology on that basis.
class PathProvider {
 public:
  PathProvider(const graph::Graph& g, RoutingOptions opts);

  // Candidate path set for (s, t): node sequences including both endpoints.
  // {{s}} when s == t; empty when t is unreachable. The reference stays
  // valid for the provider's lifetime.
  const PathSet& paths(graph::NodeId s, graph::NodeId t) { return cache_.paths(s, t); }

  // Computes the path sets of `pairs` ahead of their first paths() call on
  // the calling thread plus the workers borrowed from `budget` (may be
  // null), inserting in canonical pair order (PathCache::warm). Results are
  // the ones paths() would compute.
  void warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
            parallel::WorkBudget* budget) {
    cache_.warm(pairs, budget);
  }

  // The single path a flow with this hash key takes. KSP hash-selects over
  // paths() (per-flow pinning); ECMP walks the shortest-path DAG.
  Path route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key);

  // Path for subflow `index` of a multipath connection. KSP pins subflow i
  // to the i-th candidate, round-robin (MPTCP over KSP); ECMP routes each
  // subflow as its own flow.
  Path route_subflow(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key, int index);

  // True when route()/route_subflow() consult paths(). ECMP returns false
  // (it routes by per-hop hashing on the graph, never reading the
  // enumerated sets), which lets the eval engine skip warming a shared path
  // cache that no packet-sim cell would ever read.
  bool routes_via_paths() const { return cache_.options().scheme != Scheme::kEcmp; }

 private:
  PathCache cache_;
};

// Resolves a spec against path_provider_schemes(). Throws
// std::invalid_argument for an unknown scheme.
std::unique_ptr<PathProvider> make_path_provider(const graph::Graph& g,
                                                 const RoutingSpec& spec);

// The scheme names, in Scheme order: the one list make_path_provider
// resolves against, the scenario loader accepts and `jf_eval list` prints.
std::span<const std::string_view> path_provider_schemes();

}  // namespace jf::routing

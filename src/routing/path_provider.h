// Polymorphic routing interface: one abstraction every evaluation path —
// the fluid (restricted-MCF) throughput model, the packet simulator, and
// path-diversity accounting — consumes, replacing per-call-site switches on
// routing::Scheme.
//
// A PathProvider answers two questions about a switch pair:
//   * paths(s, t)   — the candidate path set the scheme would install
//                     (routing tables, diversity accounting, fluid models);
//   * route(s, t, flow_key) — the one path a given flow actually takes
//                     (packet simulation; ECMP realizes this by per-hop
//                     hashing over the shortest-path DAG, not by picking
//                     from an enumerated set).
//
// Built-ins cover the paper's schemes (ECMP-w, KSP-k); custom schemes
// register a factory under a scheme name and become usable everywhere a
// RoutingSpec is accepted, including jf::eval scenarios.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "routing/paths.h"

namespace jf::routing {

using Path = std::vector<graph::NodeId>;
using PathSet = std::vector<Path>;

// Declarative routing scheme reference, resolvable via the provider
// registry. `scheme` is "ecmp", "ksp", or a name registered with
// register_path_provider.
struct RoutingSpec {
  std::string scheme = "ksp";
  int width = 8;  // ECMP ways / KSP k / custom meaning

  // Display name, e.g. "ksp-8".
  std::string label() const;
};

class PathProvider {
 public:
  virtual ~PathProvider() = default;

  virtual std::string name() const = 0;

  // Candidate path set for (s, t): node sequences including both endpoints.
  // {{s}} when s == t; empty when t is unreachable. The reference stays
  // valid for the provider's lifetime.
  virtual const PathSet& paths(graph::NodeId s, graph::NodeId t) = 0;

  // Computes the path sets of `pairs` ahead of their first paths() call,
  // borrowing idle workers from `budget` (may be null) where the provider
  // can. Results are the ones paths() would compute. Default: paths() for
  // each pair, in order, on the calling thread. The built-ins compute on
  // the borrowed workers and insert in canonical pair order
  // (PathCache::warm).
  virtual void warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
                    parallel::WorkBudget* budget);

  // The single path a flow with this hash key takes. Default: deterministic
  // hash-select over paths() (per-flow ECMP-style pinning).
  virtual Path route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key);

  // Path for subflow `index` of a multipath connection. Default: round-robin
  // over paths(), pinning subflow i to the i-th candidate (MPTCP over KSP).
  virtual Path route_subflow(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key,
                             int index);

  // True when, after paths() (or warm()) has covered every (s, t) pair
  // that will subsequently be queried, all methods are safe to call
  // concurrently from multiple threads on that pair set. The built-ins
  // qualify (their lazily filled cache is only ever probed, never grown,
  // for already-cached pairs); the eval engine uses this to share one
  // warmed provider across seed cells of a deterministic topology.
  // Conservative default: false.
  virtual bool concurrent_after_warm() const { return false; }

  // True when route()/route_subflow() consult paths() — the default
  // implementations do. ECMP returns false (it routes by per-hop hashing on
  // the graph, never reading the enumerated sets), which lets the eval
  // engine skip warming a shared path cache that no packet-sim cell would
  // ever read.
  virtual bool routes_via_paths() const { return true; }
};

// Resolves a spec against the built-ins and the registry. Throws
// std::invalid_argument for an unknown scheme.
std::unique_ptr<PathProvider> make_path_provider(const graph::Graph& g,
                                                 const RoutingSpec& spec);

using PathProviderFactory =
    std::function<std::unique_ptr<PathProvider>(const graph::Graph&, const RoutingSpec&)>;

// Registers (or replaces) a custom scheme. Not thread-safe against
// concurrent make_path_provider calls; register at startup.
void register_path_provider(const std::string& scheme, PathProviderFactory factory);

// Built-in + registered scheme names (for diagnostics / CLIs).
std::vector<std::string> path_provider_schemes();

}  // namespace jf::routing

// Routing schemes over the switch fabric (paper §5), and the routing
// interface every evaluation path consumes: the fluid (restricted-MCF)
// throughput model, the packet simulator, and path-diversity accounting.
//
// Two schemes are modeled, matching the paper's comparison:
//   * ECMP-w: up to w equal-cost *shortest* paths per switch pair — what
//     commodity hardware gives you (w = 8 or 64);
//   * KSP-k: the k shortest simple paths, which may be longer than shortest —
//     the scheme the paper shows is necessary to exploit Jellyfish capacity.
//
// A PathProvider answers two questions about a switch pair:
//   * paths(s, t)   — the candidate path set the scheme would install
//                     (diversity accounting, fluid models);
//   * route(s, t, flow_key) — the one path a given flow actually takes
//                     (packet simulation; ECMP realizes this by per-hop
//                     hashing over the shortest-path DAG, not by picking
//                     from an enumerated set).
//
// A scheme is named by a RoutingSpec and resolved once, by the PathProvider
// constructor, against path_provider_schemes().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/adjacency.h"
#include "graph/graph.h"

namespace jf::parallel {
class WorkBudget;
}

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

// Deterministic flow-to-path hash (SplitMix64 of the key), mimicking ECMP
// hardware hashing: stable per flow, uniform across the path set.
std::size_t select_path(std::size_t num_paths, std::uint64_t flow_key);

// One scheme's path sets and flow routes on one graph.
//
// The provider sorts the graph's neighbor lists once, into the
// SortedAdjacency every KSP/ECMP search reads, and computes each pair's path
// set once, on first use. Every path set it computes counts in the exact obs
// counters routing.pairs, routing.paths, routing.dfs_steps and
// routing.ksp_fallbacks. Once paths() (or warm()) has covered every pair
// that will later be queried, the table is only ever probed, never grown,
// so every method is then safe to call concurrently on that pair set; the
// eval engine shares one warmed provider across the seed cells of a
// deterministic topology on that basis.
class PathProvider {
 public:
  // Throws std::invalid_argument for a scheme outside
  // path_provider_schemes() or a width below 1.
  PathProvider(const graph::Graph& g, const RoutingSpec& spec);

  // Candidate path set for (s, t): node sequences including both endpoints.
  // {{s}} when s == t; empty when t is unreachable. Computed on first use;
  // the reference stays valid for the provider's lifetime.
  const PathSet& paths(graph::NodeId s, graph::NodeId t);

  // Computes the path set of every listed pair that is not cached yet, on
  // the calling thread plus whatever workers `budget` (may be null) can
  // lend. The provider first reserves one empty entry per such pair, in
  // first-listed (canonical) order; workers then share the read-only
  // adjacency, each worker slot with its own scratch, and each writes its
  // pair's set straight into that pair's entry (no copy, no second table).
  // If a computation throws, every reserved entry is erased again. Records
  // one routing.warm span with `pairs` (sets computed) and `paths` (their
  // total size). Results are the ones paths() would compute.
  void warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
            parallel::WorkBudget* budget);

  std::size_t pairs_cached() const { return cache_.size(); }

  // The single path a flow with this hash key takes. KSP hash-selects over
  // paths() (per-flow pinning); ECMP walks the shortest-path DAG.
  Path route(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key);

  // Path for subflow `index` of a multipath connection. KSP pins subflow i
  // to the i-th candidate, round-robin (MPTCP over KSP); ECMP routes each
  // subflow as its own flow.
  Path route_subflow(graph::NodeId s, graph::NodeId t, std::uint64_t flow_key, int index);

  // True when route()/route_subflow() consult paths(). ECMP returns false
  // (it routes by per-hop hashing on the graph, never reading the
  // enumerated sets), which lets the eval engine skip warming a shared
  // provider that no packet-sim cell would ever read.
  bool routes_via_paths() const { return !ecmp_; }

 private:
  // The one place path sets are computed; counts every set it returns.
  PathSet compute(graph::NodeId s, graph::NodeId t, graph::SearchScratch& sc) const;

  // Node ids are 32-bit, so an (s, t) pair packs losslessly into one 64-bit
  // key — cheaper to hash and compare than a pair-keyed tree on the
  // per-flow lookup path.
  //
  // Determinism audit (detlint `unordered-iter`): the unordered_map is legal
  // here because it is only ever *probed* by key — paths() does a
  // find/emplace, warm() a try_emplace (and an erase on failure), and
  // pairs_cached() reads size(); nothing iterates the table, so its hash-
  // and insertion-order-dependent layout cannot reach a Report, serializer,
  // or digest. The path sets themselves come from the KSP/ECMP kernels, a
  // pure function of (graph, pair, scheme, width), whichever thread or
  // scratch computes them. warm() inserts its entries in canonical pair
  // order before any worker starts, so even the table's layout does not
  // depend on how the workers were scheduled. Any future range-for or
  // begin() over `cache_` is flagged by detlint and must either go through
  // a sorted key copy or carry an annotated proof. Locked by the
  // PathProviderTest.WarmOrderNeverReachesResults regression test.
  static std::uint64_t pack(graph::NodeId s, graph::NodeId t) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 32) |
           static_cast<std::uint32_t>(t);
  }

  bool ecmp_;  // ECMP-w when true, KSP-k otherwise
  int width_;  // ECMP ways or KSP k
  graph::SortedAdjacency adj_;
  graph::SearchScratch scratch_;  // paths()' own; warm() gives slot 0 this one
  std::unordered_map<std::uint64_t, PathSet> cache_;
};

// A PathProvider for `spec` on `g`; throws like its constructor.
std::unique_ptr<PathProvider> make_path_provider(const graph::Graph& g,
                                                 const RoutingSpec& spec);

// The scheme names: the one list PathProvider resolves against, the
// scenario loader accepts and `jf_eval list` prints.
std::span<const std::string_view> path_provider_schemes();

}  // namespace jf::routing

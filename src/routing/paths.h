// Routing schemes over the switch fabric (paper §5).
//
// Two families are modeled, matching the paper's comparison:
//   * ECMP-w: up to w equal-cost *shortest* paths per switch pair — what
//     commodity hardware gives you (w = 8 or 64);
//   * KSP-k: Yen's k shortest paths, which may be longer than shortest —
//     the scheme the paper shows is necessary to exploit Jellyfish capacity.
// Flow placement onto a path set uses a deterministic 64-bit hash of the
// flow identity, modeling per-flow ECMP hashing / MPTCP subflow pinning.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/adjacency.h"
#include "graph/graph.h"

namespace jf::parallel {
class WorkBudget;
}

namespace jf::routing {

// The kernel a PathCache runs. Above this layer a scheme is named by a
// RoutingSpec and resolved by make_path_provider (routing/path_provider.h).
enum class Scheme {
  kEcmp,  // equal-cost shortest paths, capped at `width`
  kKsp,   // Yen's k-shortest paths, k = `width`
};

struct RoutingOptions {
  Scheme scheme = Scheme::kKsp;
  int width = 8;  // ECMP ways or KSP k
};

// Deterministic flow-to-path hash (SplitMix64 of the key), mimicking ECMP
// hardware hashing: stable per flow, uniform across the path set.
std::size_t select_path(std::size_t num_paths, std::uint64_t flow_key);

// Demand-driven path cache: computes each pair's path set once.
//
// The cache sorts the graph's neighbor lists once, into the SortedAdjacency
// every Yen/ECMP search reads, and keeps one SearchScratch for paths().
// Every path set it computes counts in the exact obs counters
// routing.pairs, routing.paths and routing.spur_searches.
class PathCache {
 public:
  PathCache(const graph::Graph& g, RoutingOptions opts);

  // Paths for (s, t); computed on first use.
  const std::vector<std::vector<graph::NodeId>>& paths(graph::NodeId s, graph::NodeId t);

  // Computes the path set of every listed pair that is not cached yet, on
  // the calling thread plus whatever workers `budget` (may be null) can
  // lend. The cache first reserves one empty entry per such pair, in
  // first-listed (canonical) order; workers then share the read-only
  // adjacency, each worker slot with its own scratch, and each writes its
  // pair's set straight into that pair's entry (no copy, no second table).
  // If a computation throws, every reserved entry is erased again. Records
  // one routing.warm span with `pairs` (sets computed) and `paths` (their
  // total size). Afterwards paths() for those pairs only probes, so it may
  // run concurrently.
  void warm(std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
            parallel::WorkBudget* budget);

  std::size_t pairs_cached() const { return cache_.size(); }

  // The id-sorted adjacency the searches read (also ECMP's per-hop walk).
  const graph::SortedAdjacency& adjacency() const { return adj_; }

  const RoutingOptions& options() const { return opts_; }

 private:
  // Node ids are 32-bit, so an (s, t) pair packs losslessly into one 64-bit
  // key — cheaper to hash and compare than a pair-keyed tree on the
  // per-flow lookup path.
  //
  // Determinism audit (detlint `unordered-iter`): the unordered_map is legal
  // here because it is only ever *probed* by key — paths() does a
  // find/emplace, warm() a try_emplace (and an erase on failure), and
  // pairs_cached() reads size(); nothing iterates the table, so its hash-
  // and insertion-order-dependent layout cannot reach a Report, serializer,
  // or digest. The path sets themselves come from the Yen/ECMP kernels, a
  // pure function of (graph, pair, options), whichever thread or scratch
  // computes them. warm() inserts its entries in canonical pair order
  // before any worker starts, so even the table's layout does not depend
  // on how the workers were scheduled. Any future range-for or begin() over
  // `cache_` is flagged by detlint and must either go through a sorted key
  // copy or carry an annotated proof. Locked by the
  // PathCacheTest.WarmOrderNeverReachesResults regression test.
  static std::uint64_t pack(graph::NodeId s, graph::NodeId t) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 32) |
           static_cast<std::uint32_t>(t);
  }

  graph::SortedAdjacency adj_;
  RoutingOptions opts_;
  graph::SearchScratch scratch_;  // paths()' own; warm() gives slot 0 this one
  std::unordered_map<std::uint64_t, std::vector<std::vector<graph::NodeId>>> cache_;
};

}  // namespace jf::routing

#include "flow/mcf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "flow/gk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jf::flow {

namespace {

// Compact directed-arc representation (CSR) for fast repeated Dijkstra.
// Arc lengths and loads live in gk::State, indexed by arc.
struct ArcGraph {
  int num_nodes = 0;
  std::vector<int> first;  // node -> index into arc arrays (size n+1)
  std::vector<int> to;     // arc target
};

ArcGraph build_arcs(const graph::Graph& g) {
  ArcGraph a;
  a.num_nodes = g.num_nodes();
  a.first.assign(static_cast<std::size_t>(a.num_nodes) + 1, 0);
  const auto edges = g.edges();
  for (const auto& e : edges) {
    ++a.first[e.a + 1];
    ++a.first[e.b + 1];
  }
  for (int v = 0; v < a.num_nodes; ++v) a.first[v + 1] += a.first[v];
  a.to.assign(edges.size() * 2, 0);
  std::vector<int> cursor(a.first.begin(), a.first.end() - 1);
  for (const auto& e : edges) {
    a.to[cursor[e.a]++] = e.b;
    a.to[cursor[e.b]++] = e.a;
  }
  return a;
}

// Indexed 4-ary min-heap of {dist, node} keys, at most one per queued node.
// A key holds dist's bit pattern: every dist here is +0.0 or a positive,
// finite, non-NaN double, and for those the unsigned order of the bit
// patterns is the numeric order, so keys compare as (dist, node) pairs
// without a floating-point compare. That order is strict — no two queued
// keys share a node — so the sequence of pops depends only on the keys, not
// on how the heap happens to lay them out.
//
// items_ is padded to 4n + 8 slots, and every slot at or beyond size_ holds
// an all-ones sentinel key that orders after any real key, so each
// sift_down level picks the least of exactly four children in a two-level
// tournament of selects, without a child-count loop or a data-dependent
// branch (only the loop's exit depends on the data). pop() re-writes the
// sentinel into the slot it vacates, and reset() clears only the slots a
// search left filled. pos[node] is the node's slot while it is queued and
// stale otherwise (update() reads it for any node but uses it only for a
// queued one); the caller knows which nodes are queued (dijkstra(): finite
// dist, not yet settled), so nothing resets it.
class NodeHeap {
 public:
  struct Key {
    std::uint64_t dist;  // bit pattern of a dist >= +0.0
    std::uint32_t node;
  };

  void reset(std::size_t num_nodes) {
    if (pos_.size() != num_nodes) {
      items_.assign(4 * num_nodes + 8, kSentinel);
      pos_.assign(num_nodes, 0);
    } else {
      std::fill_n(items_.begin(), size_, kSentinel);
    }
    size_ = 0;
  }
  bool empty() const { return size_ == 0; }
  // Queues node at dist, or lowers it to dist if it is `queued`. The slot is
  // chosen by a mask, not a branch: whether a relaxed node is already queued
  // is about as unpredictable as the relaxation itself.
  void update(double dist, int node, bool queued) {
    const int q = queued;
    const int i = size_ + ((pos_[static_cast<std::size_t>(node)] - size_) & -q);
    size_ += 1 - q;
    sift_up(i, {std::bit_cast<std::uint64_t>(dist), static_cast<std::uint32_t>(node)});
  }
  // Removes the least key; returns its dist and node.
  std::pair<double, int> pop() {
    const Key top = items_[0];
    --size_;
    const Key last = items_[static_cast<std::size_t>(size_)];
    items_[static_cast<std::size_t>(size_)] = kSentinel;
    if (size_ > 0) sift_down(last);
    return {std::bit_cast<double>(top.dist), static_cast<int>(top.node)};
  }

 private:
  static constexpr Key kSentinel = {~std::uint64_t{0}, ~std::uint32_t{0}};

  // x orders strictly before y: one 128-bit unsigned compare of
  // (dist bits, node), which compiles to cmp/sbb and a flag, not a branch.
  static bool before(const Key& x, const Key& y) {
    using Wide = unsigned __int128;
    return ((Wide{x.dist} << 64) | x.node) < ((Wide{y.dist} << 64) | y.node);
  }
  void place(int i, Key k) {
    items_[static_cast<std::size_t>(i)] = k;
    pos_[k.node] = i;
  }
  void sift_up(int i, Key k) {
    while (i > 0) {
      const int parent = (i - 1) / 4;
      if (!before(k, items_[static_cast<std::size_t>(parent)])) break;
      place(i, items_[static_cast<std::size_t>(parent)]);
      i = parent;
    }
    place(i, k);
  }
  // Sinks k from the root. The four children of any slot below size_ lie
  // inside items_, and a sentinel child never orders before k, so the loop
  // stops at the first level whose least child does not. The selects are
  // written as masks and indices: gcc turns a ternary on the last compare
  // back into a branch.
  void sift_down(Key k) {
    int i = 0;
    for (;;) {
      const std::size_t c = 4 * static_cast<std::size_t>(i) + 1;
      const Key* ch = &items_[c];
      const int b01 = before(ch[1], ch[0]);
      const int b23 = 2 + before(ch[3], ch[2]);
      const int off = b01 + ((b23 - b01) & -static_cast<int>(before(ch[b23], ch[b01])));
      const Key least = ch[off];
      const int best = static_cast<int>(c) + off;
      if (!before(least, k)) break;
      place(i, least);
      i = best;
    }
    place(i, k);
  }

  std::vector<Key> items_;
  std::vector<int> pos_;
  int size_ = 0;
};

// Per-slot search scratch, reused across sweeps so searches stay
// allocation-free after the first round. Each search writes its heap's
// size on every push and pop, so slots sit on separate cache lines.
struct alignas(64) SearchScratch {
  std::vector<double> dist;
  std::vector<int> parent_arc;
  std::vector<char> pending;  // target marks; all clear between searches
  NodeHeap heap;
  std::int64_t settled = 0;  // nodes settled since the sweep collected it
};

// Single-source Dijkstra under arc lengths `len` from `s`; fills dist and
// parent-arc and stops once the `num_targets` nodes marked in `pending` are
// settled (it clears each mark as it settles that node).
//
// It settles nodes in increasing (dist[u], u) order among the reached,
// unsettled nodes: the heap holds exactly those nodes, one key each, at
// their current dist, and pops in that strict order whatever its layout.
// A lazy-deletion heap of (dist, node) pairs that skips stale pops settles
// them in that same order — its entries are distinct pairs (a node is
// pushed again only at a strictly smaller dist), and the least one that is
// not stale is (dist[u], u) for the least such node. The relaxation rule
// (nd < dist[v], arcs in CSR order) is the same too: a settled node's arcs
// are first tested into a bit mask, 64 arcs at a time, and the improved ones
// are then written in ascending arc order. graph::Graph has no parallel
// edges or self-loops, so u's arcs reach distinct nodes, no write changes a
// later test, and the mask is exactly the set the arc-by-arc loop would
// improve. So the parent forest and every path are identical to that heap's.
// The order depends only on the lengths, never on scheduling. Lengths are
// positive and d + len >= d in floating point, so a settled node's dist and
// parent arc never change again: each target's distance and path are
// exactly those of a search that stopped at that target alone.
void dijkstra(const ArcGraph& a, const std::vector<double>& len, int s, int num_targets,
              SearchScratch& w) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  w.dist.assign(static_cast<std::size_t>(a.num_nodes), kInf);
  w.parent_arc.assign(static_cast<std::size_t>(a.num_nodes), -1);
  NodeHeap& heap = w.heap;
  heap.reset(static_cast<std::size_t>(a.num_nodes));
  double* const dist = w.dist.data();
  const int* const to = a.to.data();
  const double* const lens = len.data();
  dist[s] = 0.0;
  heap.update(0.0, s, false);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    ++w.settled;
    if (w.pending[u]) {
      w.pending[u] = 0;
      if (--num_targets == 0) break;
    }
    for (int base = a.first[u]; base < a.first[u + 1]; base += 64) {
      const int count = std::min(64, a.first[u + 1] - base);
      std::uint64_t improved = 0;
      for (int k = 0; k < count; ++k) {
        const int i = base + k;
        improved |= static_cast<std::uint64_t>(d + lens[i] < dist[to[i]]) << k;
      }
      for (; improved != 0; improved &= improved - 1) {
        const int i = base + std::countr_zero(improved);
        const int v = to[i];
        // Finite dist: v is queued (a settled node is never improved).
        const bool queued = dist[v] < kInf;
        const double nd = d + lens[i];
        dist[v] = nd;
        w.parent_arc[v] = i;
        heap.update(nd, v, queued);
      }
    }
  }
}

}  // namespace

void check_mcf_options(const McfOptions& opts) {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("mcf.") + what);
  };
  require(opts.epsilon > 0 && opts.epsilon < 0.5, "epsilon must be in (0, 0.5)");
  require(opts.link_capacity > 0, "link_capacity must be > 0");
  require(opts.max_phases >= 1, "max_phases must be >= 1");
  require(opts.convergence_window >= 1, "convergence_window must be >= 1");
  require(opts.convergence_tol >= 0, "convergence_tol must be >= 0");
}

double gk_initial_length(std::size_t num_arcs, double epsilon, double capacity) {
  check(num_arcs > 0, "gk_initial_length: need >= 1 arc");
  check(epsilon > 0 && epsilon < 0.5, "gk_initial_length: epsilon in (0, 0.5)");
  check(capacity > 0, "gk_initial_length: capacity must be positive");
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  // delta = (m / (1 - eps))^(-1/eps), in log space so it cannot underflow.
  const double log_delta =
      -std::log(static_cast<double>(num_arcs) / (1.0 - epsilon)) / epsilon;
  const double delta = std::exp(std::max(log_delta, std::log(kMinNormal)));
  return std::max(delta / capacity, kMinNormal);
}

McfResult max_concurrent_flow(const graph::Graph& g, std::span<const Commodity> commodities,
                              const McfOptions& opts, parallel::WorkBudget* budget) {
  // GK telemetry: counts are exact and schedule-independent (rounds/phases
  // are decided by the serial apply order, searches by the sources each
  // sweep lists, settled by the nodes those searches settle); the _ns
  // distributions are wall times. sweep_ns, searches and settled cover the
  // sweeps of the dual bound too, and only sweeps that run: a round that
  // reuses a dual sweep (see swept_all) counts a round and no search.
  static const gk::Solver kSolver{"max_concurrent_flow", "mcf.solve", "mcf",
                                  obs::counter("mcf.solves"), obs::counter("mcf.phases"),
                                  obs::counter("mcf.undecided")};
  static obs::Counter& obs_rounds = obs::counter("mcf.rounds");
  static obs::Counter& obs_searches = obs::counter("mcf.searches");
  static obs::Counter& obs_settled = obs::counter("mcf.settled");
  static obs::Distribution& obs_sweep_ns = obs::distribution("mcf.sweep_ns");
  static obs::Distribution& obs_apply_ns = obs::distribution("mcf.apply_ns");
  gk::Driver gk(kSolver, opts);
  std::int64_t searches = 0;
  std::int64_t settled = 0;
  // Every exit reports its search and settle counts after the driver's.
  auto finish = [&](const McfResult& r) {
    gk.span().arg("searches", searches);
    gk.span().arg("settled", settled);
    return r;
  };

  const std::vector<Commodity> cs = gk.positive_demand(g, commodities);
  const ArcGraph a = build_arcs(g);
  const std::size_t m = a.to.size();
  if (auto r = gk.degenerate(cs.size(), m)) return finish(*r);

  // Source node of each CSR arc (for path extraction).
  std::vector<int> arc_src(m);
  for (int v = 0; v < a.num_nodes; ++v) {
    for (int i = a.first[v]; i < a.first[v + 1]; ++i) arc_src[i] = v;
  }
  gk::State s(m, cs, opts);

  std::vector<int> all_commodities(cs.size());
  std::iota(all_commodities.begin(), all_commodities.end(), 0);

  // Source groups of a sweep: a counting pass over source switches buckets
  // the listed indices (in listed order within a bucket) into `grouped`;
  // group k is grouped[group_first[k], group_first[k + 1]). Returns the
  // number of groups, i.e. of distinct sources.
  const std::size_t num_nodes = static_cast<std::size_t>(a.num_nodes);
  auto src_of = [&](int j) { return cs[static_cast<std::size_t>(j)].src_switch; };
  std::vector<int> bucket(num_nodes + 1);
  std::vector<int> grouped;
  std::vector<int> group_first;
  auto group_by_source = [&](const std::vector<int>& js) {
    std::fill(bucket.begin(), bucket.end(), 0);
    for (int j : js) ++bucket[static_cast<std::size_t>(src_of(j)) + 1];
    group_first.clear();
    for (std::size_t v = 0; v < num_nodes; ++v) {
      if (bucket[v + 1] > 0) group_first.push_back(bucket[v]);
      bucket[v + 1] += bucket[v];
    }
    const int num_groups = static_cast<int>(group_first.size());
    group_first.push_back(static_cast<int>(js.size()));
    grouped.resize(js.size());
    for (int j : js) grouped[static_cast<std::size_t>(bucket[src_of(j)]++)] = j;
    return num_groups;
  };

  // Workers borrowed for the whole solve: every round's Dijkstra sweep runs
  // one search per distinct source on 1 + extra threads (extra may be 0 —
  // same schedule, serial execution). Per-slot scratch keeps the sweeps
  // allocation-free after the first round; per-commodity outputs (dists,
  // paths) land in index-addressed slots, so nothing depends on which worker
  // computed what.
  parallel::WorkerTeam team(budget, group_by_source(all_commodities) - 1);
  std::vector<SearchScratch> scratch(static_cast<std::size_t>(team.size()));
  for (SearchScratch& w : scratch) w.pending.assign(num_nodes, 0);
  std::vector<double> dists(cs.size(), 0.0);
  std::vector<std::vector<int>> paths(cs.size());

  // Shortest path for every listed commodity against the *current* lengths,
  // which the caller must keep frozen for the duration of the sweep: one
  // search per distinct source, stopping once its distinct targets settle.
  auto sweep = [&](const std::vector<int>& js) {
    obs::ScopedTimer sweep_timer(obs_sweep_ns);
    const int num_groups = group_by_source(js);
    searches += num_groups;
    obs_searches.add(num_groups);

    team.run(num_groups, [&](int k, int slot) {
      const auto members = std::span<const int>(grouped).subspan(
          static_cast<std::size_t>(group_first[k]),
          static_cast<std::size_t>(group_first[k + 1] - group_first[k]));
      SearchScratch& w = scratch[static_cast<std::size_t>(slot)];
      int num_targets = 0;
      for (int j : members) {
        const int t = cs[static_cast<std::size_t>(j)].dst_switch;
        char& mark = w.pending[static_cast<std::size_t>(t)];
        if (!mark) {
          mark = 1;
          ++num_targets;
        }
      }
      dijkstra(a, s.len, src_of(members.front()), num_targets, w);
      for (int j : members) {
        const int t = cs[static_cast<std::size_t>(j)].dst_switch;
        w.pending[static_cast<std::size_t>(t)] = 0;  // the search leaves unreached marks set
        const double d = w.dist[static_cast<std::size_t>(t)];
        dists[static_cast<std::size_t>(j)] = d;
        auto& path = paths[static_cast<std::size_t>(j)];
        path.clear();
        if (std::isfinite(d)) {
          for (int cur = t; w.parent_arc[cur] != -1; cur = arc_src[w.parent_arc[cur]]) {
            path.push_back(w.parent_arc[cur]);
          }
        }
      }
    });
    // Per-slot totals, collected once per sweep: a search's settle count
    // depends only on the lengths, so the sum is the same at any schedule.
    std::int64_t swept = 0;
    for (SearchScratch& w : scratch) {
      swept += w.settled;
      w.settled = 0;
    }
    settled += swept;
    obs_settled.add(swept);
  };

  // True while dists and paths hold a sweep of all_commodities at the
  // current lengths. Only min_lengths() sets it, and every round's apply
  // clears it, so it is set exactly between a dual bound and the next
  // round: the first round of the next phase (whose active list is
  // all_commodities) or the final bound. Both read that sweep instead of
  // repeating it — a sweep is a function of the lengths alone.
  bool swept_all = false;
  auto min_lengths = [&]() -> std::span<const double> {
    if (!swept_all) sweep(all_commodities);
    swept_all = true;
    return dists;
  };

  std::vector<double> remaining;
  std::vector<int> active;
  std::vector<int> still_active;
  active.reserve(cs.size());
  still_active.reserve(cs.size());

  // Epoch-batched rounds: freeze the lengths, find every active commodity's
  // shortest path in parallel, then route and update lengths serially in
  // canonical commodity order. The schedule — and thus every arithmetic
  // operation — is identical at any worker count.
  auto route_phase = [&]() {
    remaining = s.demand;
    active = all_commodities;
    while (!active.empty()) {
      obs_rounds.increment();
      if (!swept_all) sweep(active);
      swept_all = false;  // the apply below moves the lengths
      obs::ScopedTimer apply_timer(obs_apply_ns);
      still_active.clear();
      for (int j : active) {
        const std::size_t ji = static_cast<std::size_t>(j);
        if (!std::isfinite(dists[ji])) return false;
        // A finite path is not empty (src != dst), so its bottleneck is cap.
        const double f = std::min(remaining[ji], s.cap);
        s.ship(paths[ji], ji, f);
        remaining[ji] -= f;
        if (remaining[ji] > 1e-12) still_active.push_back(j);
      }
      active.swap(still_active);
    }
    return true;
  };

  return finish(gk.run(s, route_phase, min_lengths));
}

}  // namespace jf::flow

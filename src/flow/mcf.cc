#include "flow/mcf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jf::flow {

namespace {

// Compact directed-arc representation (CSR) for fast repeated Dijkstra.
struct ArcGraph {
  int num_nodes = 0;
  std::vector<int> first;    // node -> index into arc arrays (size n+1)
  std::vector<int> to;       // arc target
  std::vector<double> cap;   // arc capacity
  std::vector<double> len;   // GK length
  std::vector<double> load;  // accumulated flow
};

ArcGraph build_arcs(const graph::Graph& g, double capacity) {
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
  a.cap.assign(a.to.size(), capacity);
  a.len.assign(a.to.size(), 0.0);
  a.load.assign(a.to.size(), 0.0);
  return a;
}

// Indexed 4-ary min-heap of (dist, node) entries, at most one per node,
// ordered lexicographically by (dist, node), in arrays sized once per node.
// pos[node] is the node's slot while it is queued and stale otherwise
// (update() reads it for any node but uses it only for a queued one); the
// caller knows which nodes are queued (dijkstra(): finite dist, not yet
// settled), so nothing resets it.
class NodeHeap {
 public:
  struct Entry {
    double dist;
    int node;
  };

  void reset(std::size_t num_nodes) {
    items_.resize(num_nodes);
    pos_.resize(num_nodes);
    size_ = 0;
  }
  bool empty() const { return size_ == 0; }
  // Queues e.node at e.dist, or lowers it to e.dist if it is `queued`. The
  // slot is chosen without a branch: whether a relaxed node is already
  // queued is about as unpredictable as the relaxation itself.
  void update(Entry e, bool queued) {
    const int slot = pos_[static_cast<std::size_t>(e.node)];
    const int i = queued ? slot : size_;
    size_ += queued ? 0 : 1;
    sift_up(i, e);
  }
  Entry pop() {
    const Entry top = items_[0];
    if (--size_ > 0) sift_down(0, items_[static_cast<std::size_t>(size_)]);
    return top;
  }

 private:
  static bool before(const Entry& x, const Entry& y) {
    return x.dist < y.dist || (x.dist == y.dist && x.node < y.node);
  }
  void place(int i, Entry e) {
    items_[static_cast<std::size_t>(i)] = e;
    pos_[static_cast<std::size_t>(e.node)] = i;
  }
  void sift_up(int i, Entry e) {
    while (i > 0) {
      const int parent = (i - 1) / 4;
      if (!before(e, items_[static_cast<std::size_t>(parent)])) break;
      place(i, items_[static_cast<std::size_t>(parent)]);
      i = parent;
    }
    place(i, e);
  }
  void sift_down(int i, Entry e) {
    const int n = size_;
    for (;;) {
      const int first = 4 * i + 1;
      if (first >= n) break;
      int best = first;
      for (int c = first + 1; c < std::min(first + 4, n); ++c) {
        if (before(items_[static_cast<std::size_t>(c)], items_[static_cast<std::size_t>(best)])) {
          best = c;
        }
      }
      if (!before(items_[static_cast<std::size_t>(best)], e)) break;
      place(i, items_[static_cast<std::size_t>(best)]);
      i = best;
    }
    place(i, e);
  }

  std::vector<Entry> items_;
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

// Single-source Dijkstra under arc lengths from `s`; fills dist and
// parent-arc and stops once the `num_targets` nodes marked in `pending` are
// settled (it clears each mark as it settles that node).
//
// It settles nodes in increasing (dist[u], u) order among the reached,
// unsettled nodes: the heap holds exactly those nodes, one entry each, at
// their current dist. A lazy-deletion heap of (dist, node) pairs that skips
// stale pops settles them in that same order — its entries are distinct
// pairs (a node is pushed again only at a strictly smaller dist), and the
// least one that is not stale is (dist[u], u) for the least such node — and
// the relaxation rule (nd < dist[v], arcs in CSR order) is the same, so the
// parent forest and every path are identical to that heap's. The order
// depends only on the lengths, never on scheduling. Lengths are positive
// and d + len >= d in floating point, so a settled node's dist and parent
// arc never change again: each target's distance and path are exactly those
// of a search that stopped at that target alone.
void dijkstra(const ArcGraph& a, int s, int num_targets, SearchScratch& w) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  w.dist.assign(static_cast<std::size_t>(a.num_nodes), kInf);
  w.parent_arc.assign(static_cast<std::size_t>(a.num_nodes), -1);
  NodeHeap& heap = w.heap;
  heap.reset(static_cast<std::size_t>(a.num_nodes));
  w.dist[s] = 0.0;
  heap.update({0.0, s}, false);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    ++w.settled;
    if (w.pending[u]) {
      w.pending[u] = 0;
      if (--num_targets == 0) break;
    }
    for (int i = a.first[u]; i < a.first[u + 1]; ++i) {
      const int v = a.to[i];
      const double nd = d + a.len[i];
      if (nd < w.dist[v]) {
        // Finite dist: v is queued (a settled node is never improved).
        const bool queued = w.dist[v] < kInf;
        w.dist[v] = nd;
        w.parent_arc[v] = i;
        heap.update({nd, v}, queued);
      }
    }
  }
}

}  // namespace

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
  check(opts.epsilon > 0 && opts.epsilon < 0.5, "max_concurrent_flow: epsilon in (0, 0.5)");
  check(opts.link_capacity > 0, "max_concurrent_flow: capacity must be positive");
  check(opts.max_phases >= 1, "max_concurrent_flow: max_phases must be >= 1");
  check(opts.convergence_window >= 1, "max_concurrent_flow: convergence_window >= 1");
  check(opts.convergence_tol >= 0, "max_concurrent_flow: convergence_tol >= 0");

  McfResult result;
  std::vector<Commodity> cs;
  for (const auto& c : commodities) {
    check(c.src_switch >= 0 && c.src_switch < g.num_nodes() && c.dst_switch >= 0 &&
              c.dst_switch < g.num_nodes() && c.src_switch != c.dst_switch,
          "max_concurrent_flow: bad commodity endpoints");
    if (c.demand > 0) cs.push_back(c);
  }

  // GK telemetry: counts are exact and schedule-independent (rounds/phases
  // are decided by the serial apply order, searches by the sources each
  // sweep lists, settled by the nodes those searches settle); the _ns
  // distributions are wall times. sweep_ns, searches and settled cover the
  // sweeps dual_upper() issues too, and only sweeps that run: a round that
  // reuses a dual sweep (see swept_all) counts a round and no search.
  static obs::Counter& obs_solves = obs::counter("mcf.solves");
  static obs::Counter& obs_phases = obs::counter("mcf.phases");
  static obs::Counter& obs_rounds = obs::counter("mcf.rounds");
  static obs::Counter& obs_searches = obs::counter("mcf.searches");
  static obs::Counter& obs_settled = obs::counter("mcf.settled");
  static obs::Distribution& obs_sweep_ns = obs::distribution("mcf.sweep_ns");
  static obs::Distribution& obs_apply_ns = obs::distribution("mcf.apply_ns");
  obs_solves.increment();
  obs::Span span("mcf.solve", "mcf");
  span.arg("commodities", static_cast<std::int64_t>(cs.size()));
  std::int64_t searches = 0;
  std::int64_t settled = 0;
  // Every exit from here on reports its phase, search and settle counts.
  auto finish = [&]() {
    span.arg("phases", result.phases);
    span.arg("searches", searches);
    span.arg("settled", settled);
    return result;
  };
  if (cs.empty()) {
    result.lambda = 1e9;
    result.lambda_upper = 1e9;
    result.decided_above = opts.decide_threshold >= 0;
    return finish();
  }
  // A disconnected commodity admits no concurrent flow at all.
  auto disconnected = [&]() {
    result.lambda = 0.0;
    result.lambda_upper = 0.0;
    result.decided_below = opts.decide_threshold >= 0;
    return finish();
  };

  ArcGraph a = build_arcs(g, opts.link_capacity);
  const std::size_t m = a.to.size();
  if (m == 0) return disconnected();  // no links: nothing routable

  // Source node of each CSR arc (for path extraction).
  std::vector<int> arc_src(m);
  for (int v = 0; v < a.num_nodes; ++v) {
    for (int i = a.first[v]; i < a.first[v + 1]; ++i) arc_src[i] = v;
  }

  const double eps = opts.epsilon;
  // Uniform capacities (build_arcs): one initial length serves every arc.
  const double init_len = gk_initial_length(m, eps, opts.link_capacity);
  for (std::size_t i = 0; i < m; ++i) a.len[i] = init_len;

  const int num_cs = static_cast<int>(cs.size());
  std::vector<double> routed(cs.size(), 0.0);  // flow shipped per commodity

  std::vector<int> all_commodities(cs.size());
  for (int j = 0; j < num_cs; ++j) all_commodities[static_cast<std::size_t>(j)] = j;

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
      dijkstra(a, src_of(members.front()), num_targets, w);
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

  // Certified primal value: scale all accumulated flow down by the worst
  // arc overload; the result is feasible, so lambda >= min_j routed_j/(ovl*d_j).
  auto primal_lambda = [&]() {
    double overload = 0.0;
    for (std::size_t i = 0; i < m; ++i) overload = std::max(overload, a.load[i] / a.cap[i]);
    if (overload <= 0) return 0.0;
    double lam = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < cs.size(); ++j) {
      lam = std::min(lam, routed[j] / overload / cs[j].demand);
    }
    return lam;
  };

  // True while dists and paths hold a sweep of all_commodities at the
  // current lengths. Only dual_upper() sets it, and every round's apply
  // clears it, so it is set exactly between a dual bound and the next
  // round: the first round of the next phase (whose active list is
  // all_commodities) or the final bound. Both read that sweep instead of
  // repeating it — a sweep is a function of the lengths alone.
  bool swept_all = false;

  // LP-duality upper bound: lambda* <= D(l)/alpha(l) for any lengths l, with
  // D = sum_e len*cap and alpha = sum_j demand_j * dist_j(l). Costs one
  // Dijkstra sweep (parallel across commodities; the alpha reduction runs in
  // canonical commodity order), so it is evaluated periodically.
  auto dual_upper = [&]() {
    double D = 0.0;
    for (std::size_t i = 0; i < m; ++i) D += a.len[i] * a.cap[i];
    if (!swept_all) sweep(all_commodities);
    swept_all = true;
    double alpha = 0.0;
    for (int j = 0; j < num_cs; ++j) {
      const double d = dists[static_cast<std::size_t>(j)];
      if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
      alpha += cs[static_cast<std::size_t>(j)].demand * d;
    }
    return alpha > 0 ? D / alpha : std::numeric_limits<double>::infinity();
  };

  constexpr double kRelativeDualGap = 0.05;  // stop when UB <= LB * (1+gap)
  const int dual_check_every = std::max(4, opts.convergence_window);
  double lambda_at_last_check = 0.0;

  std::vector<double> remaining(cs.size(), 0.0);
  std::vector<int> active;
  std::vector<int> still_active;
  active.reserve(cs.size());
  still_active.reserve(cs.size());

  for (int phase = 0; phase < opts.max_phases; ++phase) {
    // Epoch-batched rounds: freeze the lengths, find every active
    // commodity's shortest path in parallel, then route and update lengths
    // serially in canonical commodity order. The schedule — and thus every
    // arithmetic operation — is identical at any worker count.
    for (std::size_t j = 0; j < cs.size(); ++j) remaining[j] = cs[j].demand;
    active = all_commodities;
    while (!active.empty()) {
      obs_rounds.increment();
      if (!swept_all) sweep(active);
      swept_all = false;  // the apply below moves the lengths
      obs::ScopedTimer apply_timer(obs_apply_ns);
      still_active.clear();
      for (int j : active) {
        const std::size_t ji = static_cast<std::size_t>(j);
        if (!std::isfinite(dists[ji])) return disconnected();
        const auto& path = paths[ji];
        double bottleneck = std::numeric_limits<double>::infinity();
        for (int arc : path) bottleneck = std::min(bottleneck, a.cap[arc]);
        const double f = std::min(remaining[ji], bottleneck);
        for (int arc : path) {
          a.load[arc] += f;
          a.len[arc] *= 1.0 + eps * f / a.cap[arc];
        }
        routed[ji] += f;
        remaining[ji] -= f;
        if (remaining[ji] > 1e-12) still_active.push_back(j);
      }
      active.swap(still_active);
    }
    result.phases = phase + 1;
    obs_phases.increment();
    result.lambda = std::max(result.lambda, primal_lambda());

    if (opts.decide_threshold >= 0 && result.lambda >= opts.decide_threshold) {
      result.decided_above = true;
      return finish();
    }
    const bool check_dual =
        opts.decide_threshold >= 0 || (phase + 1) % dual_check_every == 0;
    if (check_dual) {
      result.lambda_upper = std::min(result.lambda_upper, dual_upper());
      if (opts.decide_threshold >= 0 && result.lambda_upper < opts.decide_threshold) {
        result.decided_below = true;
        return finish();
      }
      if (result.lambda_upper <= result.lambda * (1.0 + kRelativeDualGap)) break;
      // Plateau detection: the certified primal improves ~lambda/phase per
      // phase late in the run; once per-window gains drop below tol the
      // extra phases buy nothing (the dual gap is dominated by GK's epsilon
      // bias, not by unconverged flow).
      if (opts.decide_threshold < 0 && phase + 1 >= 2 * dual_check_every &&
          result.lambda - lambda_at_last_check <
              opts.convergence_tol * std::max(result.lambda, 1e-9)) {
        break;
      }
      lambda_at_last_check = result.lambda;
    }
  }
  result.lambda_upper = std::min(result.lambda_upper, dual_upper());
  return finish();
}

}  // namespace jf::flow

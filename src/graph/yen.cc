#include "graph/yen.h"

#include <algorithm>
#include <initializer_list>
#include <set>
#include <utility>

#include "common/check.h"

namespace jf::graph {

namespace {

using Path = std::vector<NodeId>;

// Extra hops over the spur's unmasked distance that the depth-first spur
// search tries before the BFS takes over (see the header). 2 was fastest
// on the ksp_routed shapes (245-switch Jellyfish, k=14 fat-tree); 0 and 1
// fall back too often, 3 explores too much.
constexpr int kMaxSlack = 2;

bool dead(const SearchScratch& sc, NodeId v, int r) {
  const auto i = static_cast<std::size_t>(v);
  return sc.dead_stamp[i] == sc.epoch && ((sc.dead_bits[i] >> r) & 1u) != 0;
}

void set_dead(SearchScratch& sc, NodeId v, int r) {
  const auto i = static_cast<std::size_t>(v);
  if (sc.dead_stamp[i] != sc.epoch) {
    sc.dead_stamp[i] = sc.epoch;
    sc.dead_bits[i] = 0;
  }
  sc.dead_bits[i] |= std::uint64_t{1} << r;
}

// Depth-first, in id order: extends sc.path (ending at v) by the first walk
// of exactly r more steps to t in the masked graph.
bool descend(const SortedAdjacency& adj, NodeId v, int r, NodeId src, NodeId t,
             SearchScratch& sc) {
  if (r == 0) return true;  // v == t: a step to w needs dist(w, t) <= r - 1
  for (NodeId w : adj.neighbors(v)) {
    if (sc.to_t[static_cast<std::size_t>(w)] >= r || (w == t && r > 1)) continue;
    if (w == src || sc.seen(w)) continue;
    if (v == src && sc.hop_blocked[static_cast<std::size_t>(w)]) continue;
    if (dead(sc, w, r - 1)) continue;
    sc.path.push_back(w);
    if (descend(adj, w, r - 1, src, t, sc)) return true;
    sc.path.pop_back();
    set_dead(sc, w, r - 1);
  }
  return false;
}

// BFS from `src` to `t` over the nodes the current scratch epoch has not
// seen (the caller stamps blocked nodes first), never taking a first hop
// marked in hop_blocked. Neighbors come in id order and the first parent
// wins, so the path found is the lexicographically smallest shortest one.
bool bfs(const SortedAdjacency& adj, NodeId src, NodeId t, SearchScratch& sc) {
  std::size_t tail = 0;
  auto discover = [&](NodeId v, NodeId from) {
    sc.mark(v);
    sc.parent[static_cast<std::size_t>(v)] = from;
    sc.queue[tail++] = v;
    return v == t;
  };
  sc.mark(src);
  bool found = false;
  for (NodeId v : adj.neighbors(src)) {
    if (sc.seen(v) || sc.hop_blocked[static_cast<std::size_t>(v)]) continue;
    if ((found = discover(v, src))) break;
  }
  for (std::size_t head = 0; !found && head < tail; ++head) {
    const NodeId u = sc.queue[head];
    for (NodeId v : adj.neighbors(u)) {
      if (sc.seen(v)) continue;
      if ((found = discover(v, u))) break;
    }
  }
  if (!found) return false;
  sc.path.clear();
  for (NodeId cur = t; cur != src; cur = sc.parent[static_cast<std::size_t>(cur)]) {
    sc.path.push_back(cur);
  }
  sc.path.push_back(src);
  std::reverse(sc.path.begin(), sc.path.end());
  return true;
}

// The lexicographically smallest shortest path src..t of the masked graph,
// left in sc.path. Returns false if t is cut off.
bool masked_path(const SortedAdjacency& adj, NodeId src, NodeId t, SearchScratch& sc) {
  const int d = sc.to_t[static_cast<std::size_t>(src)];
  if (d == SearchScratch::kUnlabeled) return false;
  if (d + kMaxSlack < 64) {
    for (int len = d; len <= d + kMaxSlack; ++len) {
      sc.path.assign(1, src);
      if (descend(adj, src, len, src, t, sc)) return true;
    }
  }
  return bfs(adj, src, t, sc);
}

// Yen's algorithm, with the spur searches above; s != t.
std::vector<Path> yen(const SortedAdjacency& adj, NodeId s, NodeId t, int k,
                      SearchScratch& sc) {
  const int n = adj.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  sc.begin(n);
  sc.parent.resize(un);
  sc.hop_blocked.resize(un, 0);
  sc.dead_stamp.resize(un, 0);
  sc.dead_bits.resize(un);
  sc.start_bfs(adj, t);
  sc.label_within(adj, SearchScratch::kUnlabeled);  // the spur searches read all of it

  auto path_less = [](const Path& x, const Path& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    return x < y;  // lexicographic tiebreak
  };

  std::vector<Path> result;
  // Candidate pool ordered by (length, lex); a set both orders and dedupes.
  std::set<Path, decltype(path_less)> candidates(path_less);

  if (!masked_path(adj, s, t, sc)) return {};
  result.emplace_back(sc.path.begin(), sc.path.end());

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Spur node ranges over all but the last node of the previous path.
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const auto root_end = prev.begin() + static_cast<std::ptrdiff_t>(i) + 1;

      sc.begin(n);
      // Block root nodes except the spur to keep paths loopless.
      for (std::size_t j = 0; j < i; ++j) sc.mark(prev[j]);
      // Block the next edge of every accepted path sharing this root; each
      // such edge leaves the spur (see the header).
      for (const Path& p : result) {
        if (p.size() > i + 1 && std::equal(prev.begin(), root_end, p.begin())) {
          sc.hop_blocked[static_cast<std::size_t>(p[i + 1])] = 1;
        }
      }

      const bool found = masked_path(adj, spur, t, sc);
      for (NodeId v : adj.neighbors(spur)) sc.hop_blocked[static_cast<std::size_t>(v)] = 0;
      if (!found) continue;
      // Sized exactly: the cache keeps accepted paths for its lifetime.
      Path total;
      total.reserve(i + sc.path.size());
      total.assign(prev.begin(), root_end - 1);
      total.insert(total.end(), sc.path.begin(), sc.path.end());
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(std::move(candidates.extract(candidates.begin()).value()));
  }
  return result;
}

}  // namespace

LengthScan paths_of_length(const SortedAdjacency& adj, NodeId s, NodeId t, int len,
                           std::size_t k, std::int64_t step_limit, SearchScratch& sc,
                           std::vector<std::vector<NodeId>>& out) {
  // Appends sc.path + tail to `out`, sized exactly: the cache keeps it.
  auto emit = [&](std::initializer_list<NodeId> tail) {
    std::vector<NodeId>& p = out.emplace_back();
    p.reserve(sc.path.size() + tail.size());
    p.assign(sc.path.begin(), sc.path.end());
    p.insert(p.end(), tail);
  };
  // A node w one hop from t (w != t) ends a path by its step to t. Any
  // neighbor of w besides t and its predecessor might have been a step of
  // a longer path, so it counts as a cut (conservatively: it might be on
  // the path).
  auto ends_cut = [&](NodeId w, std::size_t others) { return adj.neighbors(w).size() > others; };
  sc.path.assign(1, s);
  if (len == 1) {  // s is next to t
    if (++sc.dfs_steps > step_limit) return LengthScan::kOutOfSteps;
    emit({t});
    return ends_cut(s, 1) ? LengthScan::kListed : LengthScan::kNoLonger;
  }
  // Marks are the nodes on the current path. Every node the DFS steps onto
  // lies within len - 1 hops of t, so its label is read, never missing.
  sc.begin(adj.num_nodes());
  sc.mark(s);
  sc.cursor.assign(1, 0);
  bool cut = false;  // some step was pruned as too far from t
  // Neighbors of t on the path. Once all are, no path of 2 or more further
  // steps can end at t, at this length or any other (t's only neighbor
  // hanging off s, say), so the DFS backs out without counting a cut.
  const std::size_t entrances = adj.neighbors(t).size();
  std::size_t taken = sc.to_t[static_cast<std::size_t>(s)] == 1 ? 1 : 0;
  while (!sc.path.empty()) {
    const std::size_t depth = sc.path.size() - 1;
    const NodeId v = sc.path.back();
    const int r = len - static_cast<int>(depth);  // steps left from v, >= 2
    const auto nbrs = adj.neighbors(v);
    std::uint32_t& i = sc.cursor[depth];
    if (taken == entrances) i = static_cast<std::uint32_t>(nbrs.size());
    NodeId next = -1;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i++];
      const int dw = sc.to_t[static_cast<std::size_t>(w)];
      if (dw == 0 || sc.seen(w)) continue;  // t too early, or on the path
      if (dw >= r) {
        cut = true;
        continue;
      }
      if (r > 2) {
        next = w;
        break;
      }
      // Two steps left and dist(w, t) == 1: v -> w -> t is a path.
      if ((sc.dfs_steps += 2) > step_limit) return LengthScan::kOutOfSteps;
      cut = cut || ends_cut(w, 2);
      emit({w, t});
      if (out.size() == k) return LengthScan::kListed;
    }
    if (next >= 0) {
      if (++sc.dfs_steps > step_limit) return LengthScan::kOutOfSteps;
      sc.mark(next);
      sc.path.push_back(next);
      sc.cursor.push_back(0);
      if (sc.to_t[static_cast<std::size_t>(next)] == 1) ++taken;
    } else {
      sc.unmark(v);
      sc.path.pop_back();
      sc.cursor.pop_back();
      if (sc.to_t[static_cast<std::size_t>(v)] == 1) --taken;
    }
  }
  return cut ? LengthScan::kListed : LengthScan::kNoLonger;
}

std::vector<std::vector<NodeId>> k_shortest_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, int k, SearchScratch& sc) {
  const int n = adj.num_nodes();
  check(s >= 0 && s < n && t >= 0 && t < n, "k_shortest_paths: bad endpoints");
  check(k >= 1, "k_shortest_paths: k must be >= 1");
  if (s == t) return {{s}};

  sc.start_bfs(adj, t);
  if (!sc.label_until(adj, s)) return {};
  const int d = sc.to_t[static_cast<std::size_t>(s)];
  const auto want = static_cast<std::size_t>(k);
  const std::int64_t step_limit = sc.dfs_steps + kKspStepsPerHop * k * (d + 2);
  std::vector<Path> out;
  for (int len = d; out.size() < want; ++len) {
    sc.label_within(adj, len - 1);
    // A simple path has fewer hops than its component has nodes.
    if (sc.labels_complete() && len >= static_cast<int>(sc.order.size())) break;
    const LengthScan end = len > kKspMaxDfsHops
                               ? LengthScan::kOutOfSteps
                               : paths_of_length(adj, s, t, len, want, step_limit, sc, out);
    if (end == LengthScan::kNoLonger) break;
    if (end == LengthScan::kOutOfSteps) {
      ++sc.ksp_fallbacks;
      return yen(adj, s, t, k, sc);
    }
  }
  return out;
}

std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k) {
  SearchScratch sc;
  return k_shortest_paths(SortedAdjacency(g), s, t, k, sc);
}

}  // namespace jf::graph

#include "graph/yen.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"

namespace jf::graph {

namespace {

using Path = std::vector<NodeId>;

// Extra hops over the spur's unmasked distance that the depth-first search
// tries before the BFS takes over (see the header). 2 was fastest on the
// ksp_routed shapes (245-switch Jellyfish, k=14 fat-tree); 0 and 1 fall
// back too often, 3 explores too much.
constexpr int kMaxSlack = 2;

// Sizes Yen's own scratch arrays, then fills sc.to_t with the unmasked
// BFS distance from every node to t (-1 where cut off).
void distances_to(const SortedAdjacency& adj, NodeId t, SearchScratch& sc) {
  const auto n = static_cast<std::size_t>(adj.num_nodes());
  sc.begin(adj.num_nodes());
  sc.parent.resize(n);
  sc.hop_blocked.resize(n, 0);
  sc.dead_stamp.resize(n, 0);
  sc.dead_bits.resize(n);
  sc.to_t.assign(n, -1);
  sc.to_t[static_cast<std::size_t>(t)] = 0;
  sc.queue[0] = t;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId u = sc.queue[head];
    const int d = sc.to_t[static_cast<std::size_t>(u)] + 1;
    for (NodeId v : adj.neighbors(u)) {
      if (sc.to_t[static_cast<std::size_t>(v)] >= 0) continue;
      sc.to_t[static_cast<std::size_t>(v)] = d;
      sc.queue[tail++] = v;
    }
  }
}

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
    const int dw = sc.to_t[static_cast<std::size_t>(w)];
    if (dw < 0 || dw >= r || (w == t && r > 1)) continue;
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
  if (d < 0) return false;
  if (d + kMaxSlack < 64) {
    for (int len = d; len <= d + kMaxSlack; ++len) {
      sc.path.assign(1, src);
      if (descend(adj, src, len, src, t, sc)) return true;
    }
  }
  return bfs(adj, src, t, sc);
}

}  // namespace

std::vector<std::vector<NodeId>> k_shortest_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, int k, SearchScratch& sc) {
  const int n = adj.num_nodes();
  check(s >= 0 && s < n && t >= 0 && t < n, "k_shortest_paths: bad endpoints");
  check(k >= 1, "k_shortest_paths: k must be >= 1");
  if (s == t) return {{s}};

  auto path_less = [](const Path& x, const Path& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    return x < y;  // lexicographic tiebreak
  };

  std::vector<Path> result;
  // Candidate pool ordered by (length, lex); a set both orders and dedupes.
  std::set<Path, decltype(path_less)> candidates(path_less);

  distances_to(adj, t, sc);
  sc.begin(n);
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

      ++sc.spur_searches;
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

std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k) {
  SearchScratch sc;
  return k_shortest_paths(SortedAdjacency(g), s, t, k, sc);
}

}  // namespace jf::graph

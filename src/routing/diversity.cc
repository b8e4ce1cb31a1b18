#include "routing/diversity.h"

#include <algorithm>

#include "common/check.h"

namespace jf::routing {

std::vector<int> link_path_counts(const flow::LinkIndex& links,
                                  const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs,
                                  PathProvider& routes) {
  std::vector<int> counts(static_cast<std::size_t>(links.num_links()), 0);
  for (const auto& [s, t] : pairs) {
    if (s == t) continue;
    for (const auto& path : routes.paths(s, t)) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        ++counts[static_cast<std::size_t>(links.id(path[i], path[i + 1]))];
      }
    }
  }
  return counts;
}

std::vector<int> ranked(std::vector<int> counts) {
  std::sort(counts.begin(), counts.end());
  return counts;
}

double fraction_at_or_below(const std::vector<int>& counts, int bound) {
  check(!counts.empty(), "fraction_at_or_below: empty counts");
  const auto n = static_cast<double>(counts.size());
  const auto below = std::count_if(counts.begin(), counts.end(),
                                   [bound](int c) { return c <= bound; });
  return static_cast<double>(below) / n;
}

}  // namespace jf::routing

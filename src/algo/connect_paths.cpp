#include "algo/connect_paths.hpp"

#include <algorithm>
#include <limits>

namespace lcl::algo {

using graph::NodeId;
using graph::Tree;

namespace {

/// "No A-node in this direction". Far below INT32_MAX so a sum of two
/// distances cannot overflow; `step` saturates at it.
constexpr std::int32_t kFar = std::numeric_limits<std::int32_t>::max() / 4;

std::int32_t step(std::int32_t d) { return d >= kFar ? kFar : d + 1; }

}  // namespace

std::vector<char> mark_connect_paths(const Tree& tree,
                                     const std::vector<char>& participates,
                                     const std::vector<char>& is_a,
                                     std::int64_t bound) {
  const std::size_t n = static_cast<std::size_t>(tree.size());
  std::vector<char> mask(n, 0);
  auto at = [](NodeId v) { return static_cast<std::size_t>(v); };
  // Distance from a participant to itself as an A-node (0) or kFar.
  auto self = [&](NodeId v) { return is_a[at(v)] ? 0 : kFar; };

  // Pass 1: BFS order of every participant component with parents (a
  // component root is its own parent).
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> parent(n, graph::kInvalidNode);
  for (NodeId r = 0; r < static_cast<NodeId>(n); ++r) {
    if (!participates[at(r)] || parent[at(r)] != graph::kInvalidNode) {
      continue;
    }
    parent[at(r)] = r;
    std::size_t head = order.size();
    order.push_back(r);
    while (head < order.size()) {
      const NodeId u = order[head++];
      for (NodeId w : tree.neighbors(u)) {
        if (!participates[at(w)] || parent[at(w)] != graph::kInvalidNode) {
          continue;
        }
        parent[at(w)] = u;
        order.push_back(w);
      }
    }
  }

  // Pass 2, bottom-up: b1[v] <= b2[v] are the two smallest distances
  // from v to an A-node below v through distinct children.
  std::vector<std::int32_t> b1(n, kFar);
  std::vector<std::int32_t> b2(n, kFar);
  auto down = [&](NodeId v) { return std::min(self(v), b1[at(v)]); };
  for (std::size_t i = order.size(); i-- > 0;) {
    const NodeId v = order[i];
    const NodeId p = parent[at(v)];
    if (p == v) continue;
    const std::int32_t via = step(down(v));
    if (via < b1[at(p)]) {
      b2[at(p)] = b1[at(p)];
      b1[at(p)] = via;
    } else if (via < b2[at(p)]) {
      b2[at(p)] = via;
    }
  }

  // Pass 3, top-down: up[v] is the distance to the nearest A-node
  // reached through v's parent. The four values {self, b1, b2, up} come
  // from distinct directions at v, so v lies on an A–A path of length
  // <= bound iff the two smallest sum to <= bound.
  std::vector<std::int32_t> up(n, kFar);
  for (const NodeId v : order) {
    const NodeId p = parent[at(v)];
    if (p != v) {
      // Best sibling branch at p: b1[p] unless v itself supplied it (on
      // a tie b2[p] == b1[p], so either choice is right).
      const std::int32_t sibling =
          step(down(v)) == b1[at(p)] ? b2[at(p)] : b1[at(p)];
      up[at(v)] = step(std::min({up[at(p)], self(p), sibling}));
    }
    std::int32_t lo = kFar;
    std::int32_t hi = kFar;
    for (const std::int32_t d : {self(v), b1[at(v)], b2[at(v)], up[at(v)]}) {
      if (d < lo) {
        hi = lo;
        lo = d;
      } else if (d < hi) {
        hi = d;
      }
    }
    if (hi < kFar && static_cast<std::int64_t>(lo) + hi <= bound) {
      mask[at(v)] = 1;
    }
  }
  return mask;
}

}  // namespace lcl::algo

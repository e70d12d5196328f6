#include "algo/dfree_logn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "algo/connect_paths.hpp"

namespace lcl::algo {

namespace {

using problems::WeightOut;

std::int64_t ceil_log_base(std::int64_t n, std::int64_t base) {
  std::int64_t r = 0;
  std::int64_t v = 1;
  while (v < n) {
    v *= base;
    ++r;
  }
  return r;
}

}  // namespace

DFreeResult run_dfree_algorithm_a(const Tree& tree,
                                  const std::vector<char>& participates,
                                  const std::vector<char>& is_a, int d,
                                  std::int64_t n_for_radius) {
  if (d < 1) throw std::invalid_argument("dfree: d >= 1");
  const NodeId n = tree.size();
  DFreeResult res;
  res.output.assign(static_cast<std::size_t>(n), -1);
  res.copy_root.assign(static_cast<std::size_t>(n), graph::kInvalidNode);
  res.copy_depth.assign(static_cast<std::size_t>(n), -1);

  const std::int64_t logd = ceil_log_base(n_for_radius, d + 1);
  const std::int64_t ball_radius = logd + 1;
  const std::int64_t connect_bound = 2 * logd + 2;
  res.view_radius = 3 * logd + 3;

  auto in = [&](NodeId v) {
    return participates[static_cast<std::size_t>(v)] != 0;
  };

  // Default: every participant Declines unless a later rule overrides.
  for (NodeId v = 0; v < n; ++v) {
    if (in(v)) {
      res.output[static_cast<std::size_t>(v)] =
          static_cast<int>(WeightOut::kDecline);
    }
  }

  // --- Connect rule -------------------------------------------------
  // Exactly the nodes on a path of length <= connect_bound between two
  // input-A nodes output Connect. mark_connect_paths computes, per node,
  // its nearest input-A node in every direction (self, the two best
  // child subtrees, through the parent) in O(n) total, whatever the
  // number of A-nodes or the diameter of a weight component.
  const std::vector<char> connect =
      mark_connect_paths(tree, participates, is_a, connect_bound);
  for (NodeId v = 0; v < n; ++v) {
    if (connect[static_cast<std::size_t>(v)]) {
      res.output[static_cast<std::size_t>(v)] =
          static_cast<int>(WeightOut::kConnect);
    }
  }

  // --- A* assignment around each non-Connect A-node ------------------
  // Two non-Connect A-nodes are more than connect_bound = 2*ball_radius
  // apart, so their balls are disjoint and the total ball work is O(n).
  // The scratch below is allocated once; `in_ball` is reset per ball.
  std::vector<char> in_ball(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> order;           // BFS order of the ball
  std::vector<std::int32_t> parent_at; // index in order of the BFS parent
  std::vector<std::int32_t> depth_of;  // parallel to order
  // BFS appends each node's children consecutively: the children of
  // order[i] are order[kids_end[i-1] .. kids_end[i]) (kids_end[-1] = 1).
  std::vector<std::int32_t> kids_end;
  std::vector<std::int64_t> subtree;
  std::vector<std::int32_t> kids;      // one node's children, sorted
  std::vector<std::int32_t> frontier;  // A* queue (indices into order)
  for (NodeId v = 0; v < n; ++v) {
    if (!in(v) || !is_a[static_cast<std::size_t>(v)]) continue;
    if (res.output[static_cast<std::size_t>(v)] ==
        static_cast<int>(WeightOut::kConnect)) {
      continue;
    }

    // BFS ball of radius ball_radius rooted at v; record parents so the
    // ball is a rooted tree.
    order.assign(1, v);
    parent_at.assign(1, -1);
    depth_of.assign(1, 0);
    kids_end.clear();
    in_ball[static_cast<std::size_t>(v)] = 1;
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId u = order[head];
      const std::int32_t du = depth_of[head];
      if (du < ball_radius) {
        for (NodeId w : tree.neighbors(u)) {
          if (!in(w) || in_ball[static_cast<std::size_t>(w)]) continue;
          in_ball[static_cast<std::size_t>(w)] = 1;
          order.push_back(w);
          parent_at.push_back(static_cast<std::int32_t>(head));
          depth_of.push_back(du + 1);
        }
      }
      kids_end.push_back(static_cast<std::int32_t>(order.size()));
    }
    for (NodeId u : order) in_ball[static_cast<std::size_t>(u)] = 0;

    // Subtree sizes within the ball (children are later in BFS order).
    subtree.assign(order.size(), 1);
    for (std::size_t i = order.size(); i-- > 1;) {
      subtree[static_cast<std::size_t>(parent_at[i])] += subtree[i];
    }

    // A*: root Copy; every Copy node Declines its min(d, #children)
    // heaviest child subtrees, keeps the rest Copy.
    res.output[static_cast<std::size_t>(v)] =
        static_cast<int>(WeightOut::kCopy);
    res.copy_root[static_cast<std::size_t>(v)] = v;
    res.copy_depth[static_cast<std::size_t>(v)] = 0;
    frontier.assign(1, 0);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t i = static_cast<std::size_t>(frontier[head]);
      kids.clear();
      for (std::int32_t c = i == 0 ? 1 : kids_end[i - 1]; c < kids_end[i];
           ++c) {
        kids.push_back(c);
      }
      std::sort(kids.begin(), kids.end(),
                [&](std::int32_t a, std::int32_t b) {
                  return subtree[static_cast<std::size_t>(a)] >
                         subtree[static_cast<std::size_t>(b)];
                });
      const std::size_t to_decline =
          std::min<std::size_t>(static_cast<std::size_t>(d), kids.size());
      for (std::size_t c = to_decline; c < kids.size(); ++c) {
        const std::int32_t child = kids[c];
        const NodeId w = order[static_cast<std::size_t>(child)];
        res.output[static_cast<std::size_t>(w)] =
            static_cast<int>(WeightOut::kCopy);
        res.copy_root[static_cast<std::size_t>(w)] = v;
        res.copy_depth[static_cast<std::size_t>(w)] =
            depth_of[static_cast<std::size_t>(child)];
        frontier.push_back(child);
      }
      // Declined subtrees stay at the default Decline.
    }
  }

  return res;
}

}  // namespace lcl::algo

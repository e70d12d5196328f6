// The Connect-path mask (Algorithm A's Connect rule and the fast
// decomposition's distance-5 pre-step): the linear nearest-A DP must mark
// exactly the nodes the direct definition marks. The oracle below is the
// definition run literally — a depth-bounded BFS from every input-A node,
// then a walk back from every other A-node it reached.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "algo/connect_paths.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;

std::vector<char> bfs_reference(const Tree& tree,
                                const std::vector<char>& participates,
                                const std::vector<char>& is_a,
                                std::int64_t bound) {
  const std::size_t n = static_cast<std::size_t>(tree.size());
  std::vector<char> mask(n, 0);
  for (NodeId a = 0; a < tree.size(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    if (!participates[ai] || !is_a[ai]) continue;
    std::vector<NodeId> parent(n, graph::kInvalidNode);
    std::vector<std::int64_t> dist(n, -1);
    std::vector<NodeId> ball{a};
    dist[ai] = 0;
    for (std::size_t head = 0; head < ball.size(); ++head) {
      const NodeId u = ball[head];
      if (dist[static_cast<std::size_t>(u)] == bound) continue;
      for (NodeId w : tree.neighbors(u)) {
        const auto wi = static_cast<std::size_t>(w);
        if (!participates[wi] || dist[wi] >= 0) continue;
        dist[wi] = dist[static_cast<std::size_t>(u)] + 1;
        parent[wi] = u;
        ball.push_back(w);
      }
    }
    for (NodeId b : ball) {
      if (b == a || !is_a[static_cast<std::size_t>(b)]) continue;
      for (NodeId cur = b; cur != graph::kInvalidNode;
           cur = parent[static_cast<std::size_t>(cur)]) {
        mask[static_cast<std::size_t>(cur)] = 1;
      }
    }
  }
  return mask;
}

constexpr std::int64_t kBounds[] = {0, 1, 2, 5, 9, 22};

void expect_matches(const Tree& tree, const std::vector<char>& participates,
                    const std::vector<char>& is_a, const std::string& what) {
  for (const std::int64_t bound : kBounds) {
    const auto got =
        algo::mark_connect_paths(tree, participates, is_a, bound);
    const auto want = bfs_reference(tree, participates, is_a, bound);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      ASSERT_EQ(got[v], want[v])
          << what << " bound=" << bound << " node " << v;
    }
  }
}

TEST(ConnectPaths, MatchesBfsReference) {
  int families = 0;
  for (const std::string& name : graph::family_names()) {
    if (!graph::find_family(name)->is_tree) continue;
    ++families;
    for (const NodeId n : {50, 300, 2000}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Tree t = graph::make_family_instance(name, n, seed);
        const auto size = static_cast<std::size_t>(t.size());
        std::mt19937_64 rng(seed * 1000 + static_cast<std::uint64_t>(n));
        // Sparse to dense A-sets, with and without holes in the
        // participant forest; some A-nodes do not participate.
        for (const double a_rate : {0.01, 0.08, 0.4}) {
          for (const double hole_rate : {0.0, 0.1}) {
            std::bernoulli_distribution is_hole(hole_rate);
            std::bernoulli_distribution is_a_node(a_rate);
            std::vector<char> participates(size);
            std::vector<char> is_a(size);
            for (std::size_t v = 0; v < size; ++v) {
              participates[v] = is_hole(rng) ? 0 : 1;
              is_a[v] = is_a_node(rng) ? 1 : 0;
            }
            expect_matches(t, participates, is_a,
                           name + " n=" + std::to_string(n) +
                               " seed=" + std::to_string(seed) +
                               " a_rate=" + std::to_string(a_rate) +
                               " hole_rate=" + std::to_string(hole_rate));
          }
        }
      }
    }
  }
  EXPECT_GE(families, 10);
}

TEST(ConnectPaths, EdgeCases) {
  const Tree path = graph::make_path(40);
  const std::vector<char> all(40, 1);
  const std::vector<char> none(40, 0);

  // No A-nodes: nothing connects.
  for (const std::int64_t bound : kBounds) {
    const auto m = algo::mark_connect_paths(path, all, none, bound);
    EXPECT_EQ(m, none);
  }
  expect_matches(path, all, none, "no A-nodes");

  // Every node is A: every node has an A-neighbor, so bound >= 1 marks
  // all of them and bound 0 marks none.
  EXPECT_EQ(algo::mark_connect_paths(path, all, all, 0), none);
  EXPECT_EQ(algo::mark_connect_paths(path, all, all, 1), all);
  expect_matches(path, all, all, "all A-nodes");

  // A single node, A or not, has no partner.
  const Tree single = graph::make_path(1);
  for (const char a : {0, 1}) {
    EXPECT_EQ(algo::mark_connect_paths(single, {1}, {a}, 22),
              std::vector<char>{0});
  }

  // A-nodes at distance 4 on the path: the bound is inclusive.
  std::vector<char> two_a(40, 0);
  two_a[10] = two_a[14] = 1;
  EXPECT_EQ(algo::mark_connect_paths(path, all, two_a, 3), none);
  const auto m4 = algo::mark_connect_paths(path, all, two_a, 4);
  for (NodeId v = 0; v < 40; ++v) {
    EXPECT_EQ(m4[static_cast<std::size_t>(v)], v >= 10 && v <= 14 ? 1 : 0)
        << "node " << v;
  }

  // A non-participating A-node is ignored, and a non-participating node
  // between two A-nodes cuts their path.
  std::vector<char> part = all;
  part[14] = 0;
  EXPECT_EQ(algo::mark_connect_paths(path, part, two_a, 22), none);
  part = all;
  part[12] = 0;
  EXPECT_EQ(algo::mark_connect_paths(path, part, two_a, 22), none);
  expect_matches(path, part, two_a, "cut path");

  // A participant forest of several components, each with its own
  // A-pairs: components connect independently.
  std::vector<char> forest = all;
  std::vector<char> forest_a(40, 0);
  forest[9] = forest[20] = forest[30] = 0;
  forest_a[0] = forest_a[3] = 1;    // component 0..8: connects 0..3
  forest_a[11] = forest_a[19] = 1;  // component 10..19: distance 8
  forest_a[25] = 1;                 // component 21..29: lone A
  forest_a[31] = forest_a[39] = 1;  // component 31..39: distance 8
  const auto mf = algo::mark_connect_paths(path, forest, forest_a, 8);
  for (NodeId v = 0; v < 40; ++v) {
    const bool want = v <= 3 || (v >= 11 && v <= 19) || v >= 31;
    EXPECT_EQ(mf[static_cast<std::size_t>(v)], want ? 1 : 0)
        << "node " << v;
  }
  expect_matches(path, forest, forest_a, "forest");

  // A star whose leaves are A: the centre joins every leaf pair.
  const Tree star = graph::make_star(6);
  std::vector<char> star_part(static_cast<std::size_t>(star.size()), 1);
  std::vector<char> leaves_a(static_cast<std::size_t>(star.size()), 1);
  leaves_a[0] = 0;
  expect_matches(star, star_part, leaves_a, "star");
  EXPECT_EQ(algo::mark_connect_paths(star, star_part, leaves_a, 2),
            star_part);
  EXPECT_EQ(algo::mark_connect_paths(star, star_part, leaves_a, 1),
            std::vector<char>(star_part.size(), 0));
}

}  // namespace
}  // namespace lcl

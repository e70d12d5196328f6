// Algorithm A for the d-free weight problem (Section 7): validity on the
// paper's weight-tree instances, the Lemma-40 Copy bound, and Connect
// behavior between close input-A nodes.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/dfree_logn.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;
using problems::WeightOut;

/// d-free instance: a balanced weight tree whose root is the input-A node.
struct WeightTreeInstance {
  Tree tree;
  std::vector<char> participates;
  std::vector<char> is_a;
};

WeightTreeInstance weight_tree_instance(NodeId w, int delta) {
  WeightTreeInstance inst;
  inst.tree = graph::make_balanced_weight_tree(w, delta);
  inst.participates.assign(static_cast<std::size_t>(w), 1);
  inst.is_a.assign(static_cast<std::size_t>(w), 0);
  inst.is_a[0] = 1;
  inst.tree.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  for (NodeId v = 1; v < w; ++v) {
    inst.tree.set_input(v, static_cast<int>(problems::DFreeInput::kW));
  }
  return inst;
}

class DFreeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DFreeSweep, ValidAndCopyBounded) {
  const auto [w, delta, d] = GetParam();
  ASSERT_GE(delta, d + 3);
  auto inst = weight_tree_instance(w, delta);
  const auto res = algo::run_dfree_algorithm_a(
      inst.tree, inst.participates, inst.is_a, d, inst.tree.size());
  test::assert_valid(
      problems::check_dfree_weight(inst.tree, d, res.output));
  // Root must Copy (it is input-A with no close A peer).
  EXPECT_EQ(res.output[0], static_cast<int>(WeightOut::kCopy));

  // Lemma 40: |Copy| <= 6 * |ball|^x with x = log(D-1-d)/log(D-1); the
  // ball is at most the whole tree.
  std::int64_t copies = 0;
  for (int o : res.output) {
    if (o == static_cast<int>(WeightOut::kCopy)) ++copies;
  }
  const double x = core::efficiency_x(delta, d);
  EXPECT_LE(static_cast<double>(copies),
            6.0 * std::pow(static_cast<double>(w), x) + 1.0)
      << "w=" << w << " delta=" << delta << " d=" << d;
  // And at least w^x nodes copy (Lemma 23's lower bound, up to the
  // truncation of the last level).
  EXPECT_GE(static_cast<double>(copies),
            0.2 * std::pow(static_cast<double>(w), x) - 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DFreeSweep,
    ::testing::Values(std::make_tuple(200, 5, 2),
                      std::make_tuple(1000, 5, 2),
                      std::make_tuple(1000, 6, 3),
                      std::make_tuple(3000, 7, 3),
                      std::make_tuple(3000, 9, 4),
                      std::make_tuple(5000, 9, 6)));

TEST(DFree, ConnectBetweenCloseANodes) {
  // A path of 7 weight nodes whose two ends are input-A: within the
  // Connect bound, the whole path connects.
  const NodeId n = 7;
  Tree t = graph::make_path(n);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[0] = is_a[static_cast<std::size_t>(n - 1)] = 1;
  t.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  t.set_input(n - 1, static_cast<int>(problems::DFreeInput::kA));
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, 2, n);
  test::assert_valid(problems::check_dfree_weight(t, 2, res.output));
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(res.output[static_cast<std::size_t>(v)],
              static_cast<int>(WeightOut::kConnect))
        << "node " << v;
  }
}

TEST(DFree, FarANodesDoNotConnect) {
  // Far-apart A-nodes on a long path: no Connect; each A copies.
  const NodeId n = 4000;
  Tree t = graph::make_path(n);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[0] = is_a[static_cast<std::size_t>(n - 1)] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, 2, n);
  test::assert_valid(problems::check_dfree_weight(t, 2, res.output));
  EXPECT_EQ(res.output[0], static_cast<int>(WeightOut::kCopy));
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NE(res.output[static_cast<std::size_t>(v)],
              static_cast<int>(WeightOut::kConnect));
  }
}

TEST(DFree, CopyComponentContainsExactlyOneANode) {
  // Observation 39 on a random weight forest with several A nodes.
  Tree t = graph::make_random_tree(3000, 5, 99);
  const NodeId n = t.size();
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  // A nodes far apart: indices 0, n/2 (random attachment keeps them
  // reasonably distant with this seed; Connect handles them otherwise).
  is_a[0] = 1;
  is_a[static_cast<std::size_t>(n / 2)] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, 2, n);
  test::assert_valid(problems::check_dfree_weight(t, 2, res.output));
  // Each Copy node belongs to the component of exactly one root.
  for (NodeId v = 0; v < n; ++v) {
    if (res.output[static_cast<std::size_t>(v)] ==
        static_cast<int>(WeightOut::kCopy)) {
      EXPECT_NE(res.copy_root[static_cast<std::size_t>(v)],
                graph::kInvalidNode);
    }
  }
}

TEST(DFree, ManySpacedANodesEachOwnOneCopyComponent) {
  // A caterpillar (spine 0..1999, two legs per spine node) with an A-node
  // every 25 spine steps: 80 A-nodes, each farther than the Connect bound
  // from the next, so none connects and every one grows its own A* ball
  // out of the shared, per-ball-reset scratch.
  const NodeId spine = 2000;
  const NodeId spacing = 25;
  const int d = 2;
  Tree t = graph::make_caterpillar(spine, 2);
  const NodeId n = t.size();
  // connect_bound = 2 * ceil(log_3 6000) + 2 = 18 < spacing.
  ASSERT_EQ(n, 6000);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < spine; v += spacing) {
    is_a[static_cast<std::size_t>(v)] = 1;
  }
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, d, n);
  test::assert_valid(problems::check_dfree_weight(t, d, res.output));

  // Label the Copy components (connected through Copy-Copy edges) and
  // count the A-nodes in each.
  const int copy = static_cast<int>(WeightOut::kCopy);
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  std::vector<int> a_count;
  for (NodeId s = 0; s < n; ++s) {
    if (res.output[static_cast<std::size_t>(s)] != copy ||
        comp[static_cast<std::size_t>(s)] >= 0) {
      continue;
    }
    const int id = static_cast<int>(a_count.size());
    a_count.push_back(0);
    std::vector<NodeId> stack{s};
    comp[static_cast<std::size_t>(s)] = id;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      if (is_a[static_cast<std::size_t>(u)]) ++a_count.back();
      for (NodeId w : t.neighbors(u)) {
        if (res.output[static_cast<std::size_t>(w)] == copy &&
            comp[static_cast<std::size_t>(w)] < 0) {
          comp[static_cast<std::size_t>(w)] = id;
          stack.push_back(w);
        }
      }
    }
  }
  EXPECT_EQ(a_count.size(), static_cast<std::size_t>(spine / spacing));
  for (std::size_t c = 0; c < a_count.size(); ++c) {
    EXPECT_EQ(a_count[c], 1) << "Copy component " << c;
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    EXPECT_NE(res.output[vi], static_cast<int>(WeightOut::kConnect));
    if (is_a[vi]) EXPECT_EQ(res.output[vi], copy) << "A-node " << v;
    if (res.output[vi] == copy) {
      // The recorded root is the component's A-node.
      const NodeId root = res.copy_root[vi];
      ASSERT_NE(root, graph::kInvalidNode);
      EXPECT_TRUE(is_a[static_cast<std::size_t>(root)]);
      EXPECT_EQ(comp[static_cast<std::size_t>(root)], comp[vi]);
    }
  }
}

TEST(DFree, ViewRadiusIsLogarithmic) {
  auto inst = weight_tree_instance(10000, 5);
  const auto res = algo::run_dfree_algorithm_a(
      inst.tree, inst.participates, inst.is_a, 2, inst.tree.size());
  // 3*ceil(log_3(10000)) + 3 = 3*9 + 3 = 30.
  EXPECT_EQ(res.view_radius, 30);
}

}  // namespace
}  // namespace lcl

// Weight-augmented 2.5-coloring (Section 10 / Lemma 69): composite
// validity (Definition 67 checker) and the Theta(n^{1/k}) node-average.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/weight_aug.hpp"
#include "core/fitting.hpp"
#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "problems/labels.hpp"
#include "problems/checkers.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::Tree;

graph::WeightedInstance make_instance(int k, std::int64_t target_n,
                                      std::uint64_t seed) {
  // Classical worst-case shape: all levels have length ~ n^{1/k}.
  const double l = std::pow(static_cast<double>(target_n),
                            1.0 / static_cast<double>(k));
  std::vector<std::int64_t> ell(
      static_cast<std::size_t>(k),
      std::max<std::int64_t>(2, static_cast<std::int64_t>(std::llround(l))));
  auto inst = graph::make_weighted_construction(ell, 5);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);
  return inst;
}

class WeightAugSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeightAugSweep, ValidOnWeightedConstruction) {
  const int k = GetParam();
  auto inst = make_instance(k, 4000, 31 + static_cast<std::uint64_t>(k));
  algo::WeightAugOptions o;
  o.k = k;
  problems::OrientationMap orient;
  const auto stats = algo::run_weight_aug(inst.tree, o, &orient);
  test::assert_valid(
      problems::check_weight_augmented(inst.tree, k, stats.output, orient));
}

INSTANTIATE_TEST_SUITE_P(Ks, WeightAugSweep, ::testing::Values(2, 3));

TEST(WeightAug, NodeAverageScalesLikeRootK) {
  const int k = 2;
  std::vector<core::Sample> samples;
  for (std::int64_t n : {2000, 8000, 32000}) {
    auto inst = make_instance(k, n, 7);
    algo::WeightAugOptions o;
    o.k = k;
    problems::OrientationMap orient;
    const auto stats = algo::run_weight_aug(inst.tree, o, &orient);
    test::assert_valid(problems::check_weight_augmented(
        inst.tree, k, stats.output, orient));
    samples.push_back({static_cast<double>(inst.tree.size()),
                       stats.node_averaged});
  }
  const auto fit = core::fit_power_law(samples);
  // Lemma 69: Theta(n^{1/2}) for k = 2.
  EXPECT_GT(fit.exponent, 0.5 - 0.2);
  EXPECT_LT(fit.exponent, 0.5 + 0.2);
}

TEST(WeightAug, MostWeightCopiesTheHost) {
  // Lemma 68: Omega(w) of each balanced weight tree copies the host's
  // output (efficiency factor x = 1).
  auto inst = make_instance(2, 6000, 11);
  algo::WeightAugOptions o;
  o.k = 2;
  problems::OrientationMap orient;
  const auto stats = algo::run_weight_aug(inst.tree, o, &orient);
  std::int64_t weight = 0, copying = 0;
  for (graph::NodeId v = 0; v < inst.tree.size(); ++v) {
    if (inst.tree.input(v) !=
        static_cast<int>(graph::WeightInput::kWeight)) {
      continue;
    }
    ++weight;
    if (stats.output[static_cast<std::size_t>(v)].secondary >= 0) {
      ++copying;
    }
  }
  ASSERT_GT(weight, 0);
  EXPECT_GT(static_cast<double>(copying),
            0.9 * static_cast<double>(weight));
}

// Sleeping weight nodes. A 41-node active path 0..40 carries the
// weight chain 41-42-43 on its middle node 20. With k = 2 the gamma is
// 7, so no endpoint wave ever reaches node 20: it never publishes and
// Declines at the phase-1 deadline. Node 41 points at active node 20
// (kPointsActive), 42 points at 41 and 43 at 42 (kPointsWeight). Each
// weight node sleeps from its label round on, and is only woken by its
// pointee: 41 by node 20's termination, 42 and 43 by their pointee's
// publish.
graph::Tree make_sleeping_chain() {
  graph::TreeBuilder b(44);
  for (graph::NodeId v = 0; v + 1 <= 40; ++v) b.add_edge(v, v + 1);
  b.add_edge(20, 41);
  b.add_edge(41, 42);
  b.add_edge(42, 43);
  for (graph::NodeId v = 41; v <= 43; ++v) {
    b.set_input(v, static_cast<int>(graph::WeightInput::kWeight));
  }
  return b.finalize();
}

TEST(WeightAugSleep, PointeeTerminationAndPublishWakeTheWaiters) {
  const Tree tree = make_sleeping_chain();
  algo::WeightAugOptions o;
  o.k = 2;

  algo::WeightAugProgram pernode_program(tree, o);
  local::Engine pernode(tree, local::KernelMode::kAuto,
                        local::DispatchMode::kPerNode);
  const local::RunStats ref = pernode.run(pernode_program, 1000);
  ASSERT_FALSE(ref.truncated);

  algo::WeightAugProgram batch_program(tree, o);
  test::StepCounter counter(batch_program, tree.size());
  local::Engine batch(tree, local::KernelMode::kAuto,
                      local::DispatchMode::kBatch);
  // Bounded, so a node that never wakes fails the test instead of
  // idling to the default round limit.
  const local::RunStats stats = batch.run(counter, 1000);
  ASSERT_FALSE(stats.truncated);

  EXPECT_EQ(ref.termination_round, stats.termination_round);
  EXPECT_EQ(ref.primaries(), stats.primaries());
  EXPECT_EQ(ref.secondaries(), stats.secondaries());
  test::assert_valid(problems::check_weight_augmented(
      tree, 2, stats.output, batch_program.orientation()));

  const auto t_of = [&](graph::NodeId v) {
    return stats.termination_round[static_cast<std::size_t>(v)];
  };
  // Node 20 Declines at the deadline round phase_start(1) + gamma + 1.
  EXPECT_EQ(t_of(20), 9);
  EXPECT_EQ(stats.output[20].primary, static_cast<int>(problems::Color::kD));
  // The termination of 20 wakes 41 in the next round, and 41 copies D.
  EXPECT_EQ(t_of(41), t_of(20) + 1);
  EXPECT_EQ(stats.output[41].secondary, stats.output[20].primary);
  EXPECT_EQ(counter.steps(41).back(), t_of(41));
  // 41 slept from its label round until the wake: two steps in all.
  EXPECT_EQ(counter.steps(41).size(), 2U);
  // 41's publish wakes 42, whose publish wakes 43; each is stepped at its
  // label round and at the wake, never in between.
  EXPECT_EQ(t_of(42), t_of(41) + 1);
  EXPECT_EQ(t_of(43), t_of(42) + 1);
  EXPECT_EQ(counter.steps(42).size(), 2U);
  EXPECT_EQ(counter.steps(43).size(), 2U);
  EXPECT_EQ(stats.output[43].secondary, stats.output[20].primary);
}

}  // namespace
}  // namespace lcl

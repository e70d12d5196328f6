// Differential test between the arena engine and the frozen legacy
// baseline (bench/legacy_engine.hpp): for every registered solver on
// random Prufer / Galton-Watson instances, the solver's termination
// schedule replayed on the legacy engine must reproduce the
// node-average *bit-identically* (same sum, same division) and certify
// identically through the solver's own registry checker. This pins the
// two engines' round/termination accounting against each other — an
// off-by-one in either round numbering, T_v bookkeeping, or alive
// compaction shows up as a sum or verdict mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/apoly.hpp"
#include "algo/generic_hier.hpp"
#include "algo/pi35.hpp"
#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "legacy_engine.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"
#include "problems/levels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

/// Replays a termination schedule: node v terminates exactly in round
/// T_v (T_v == 0 during init), publishing nothing. Records the rounds
/// the legacy engine actually assigned, so the comparison reads the
/// engine's bookkeeping rather than echoing the input.
class ReplayProgram final : public bench::legacy::Program {
 public:
  explicit ReplayProgram(const std::vector<std::int64_t>& t_v)
      : t_v_(t_v), observed_(t_v.size(), -1) {}

  void on_init(bench::legacy::NodeCtx& ctx) override {
    if (t_v_[static_cast<std::size_t>(ctx.node())] == 0) {
      ctx.terminate(0);
      observed_[static_cast<std::size_t>(ctx.node())] = ctx.round();
    }
  }
  void on_round(bench::legacy::NodeCtx& ctx) override {
    if (ctx.round() >= t_v_[static_cast<std::size_t>(ctx.node())]) {
      ctx.terminate(0);
      observed_[static_cast<std::size_t>(ctx.node())] = ctx.round();
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& observed() const {
    return observed_;
  }

 private:
  const std::vector<std::int64_t>& t_v_;
  std::vector<std::int64_t> observed_;
};

struct Case {
  std::string family;
  graph::NodeId n;
  std::uint64_t seed;
};

class DifferentialSolvers
    : public ::testing::TestWithParam<std::tuple<std::string, Case>> {};

TEST_P(DifferentialSolvers, LegacyReplayMatchesBitIdentically) {
  const auto& [solver_name, c] = GetParam();
  const algo::SolverSpec& spec = algo::solver(solver_name);

  graph::Tree tree =
      graph::make_family_instance(c.family, c.n, c.seed, /*delta=*/3);
  algo::prepare_instance(tree, spec.needs, c.seed);

  algo::SolverConfig config;
  config.seed = c.seed;
  config.validate(spec);

  // Modern run (the same sequence run_registered performs, kept inline
  // so the program stays alive for the certify calls below).
  const std::unique_ptr<local::Program> program =
      spec.factory(tree, config);
  local::Engine engine(tree);
  const local::RunStats modern = engine.run(*program);
  ASSERT_FALSE(modern.truncated);
  const problems::CheckResult modern_verdict =
      spec.certify(tree, *program, modern, config);

  // Legacy replay of the identical schedule.
  ReplayProgram replay(modern.termination_round);
  bench::legacy::Engine legacy(tree);
  const bench::legacy::RunStats legacy_stats =
      legacy.run(replay, modern.worst_case + 2);

  // Bit-identical accounting: same executed rounds, same sum of T_v,
  // and therefore the same node-average down to the last ulp.
  EXPECT_EQ(legacy_stats.rounds, modern.rounds);
  EXPECT_EQ(legacy_stats.total_rounds, modern.total_rounds);
  const double legacy_na =
      static_cast<double>(legacy_stats.total_rounds) /
      static_cast<double>(modern.n);
  EXPECT_EQ(legacy_na, modern.node_averaged);

  // The legacy engine must have terminated every node in exactly the
  // round the modern engine recorded.
  EXPECT_EQ(replay.observed(), modern.termination_round);

  // Certify identically: the solver's own checker graded on the legacy
  // engine's termination rounds (with the modern outputs, which the
  // legacy baseline does not store) must return the same verdict.
  local::RunStats synthetic = modern;
  synthetic.termination_round = replay.observed();
  const problems::CheckResult legacy_verdict =
      spec.certify(tree, *program, synthetic, config);
  EXPECT_EQ(legacy_verdict.ok, modern_verdict.ok);
  EXPECT_EQ(legacy_verdict.reason, modern_verdict.reason);
  EXPECT_TRUE(modern_verdict.ok) << modern_verdict.reason;
}

std::vector<std::string> differential_solvers() {
  // Every registered solver; both families are plain trees, so the
  // compatibility predicate only needs to hold for the *family*
  // registry entries (delta is pinned to 3 by the instance builder).
  return algo::solver_names();
}

INSTANTIATE_TEST_SUITE_P(
    RegistryOnRandomTrees, DifferentialSolvers,
    ::testing::Combine(
        ::testing::ValuesIn(differential_solvers()),
        ::testing::Values(Case{"prufer", 420, 17},
                          Case{"galton_watson", 420, 23})),
    [](const ::testing::TestParamInfo<DifferentialSolvers::ParamType>&
           info) {
      return std::get<0>(info.param) + "_" +
             std::get<1>(info.param).family + "_" +
             std::to_string(std::get<1>(info.param).seed);
    });

// Seeded three-way fuzz: every registered solver on freshly sampled
// random families, run under BOTH kernel paths. The scalar and SIMD
// engines must agree *bit-identically* (termination rounds, outputs,
// node-average down to the ulp), and the shared schedule must replay
// bit-identically on the frozen legacy engine — so a kernel bug can't
// hide behind instances the parameterized suite happens not to cover.
TEST(DifferentialFuzz, ScalarSimdLegacyAgreeOnRandomFamilies) {
  const std::vector<std::string> families = {"prufer", "galton_watson",
                                             "caterpillar"};
  std::uint64_t seed = 0x51D0FACADE;
  for (int iter = 0; iter < 6; ++iter) {
    const std::string& family = families[static_cast<std::size_t>(iter) %
                                         families.size()];
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto n = static_cast<graph::NodeId>(64 + (seed >> 32) % 300);

    for (const std::string& solver_name : algo::solver_names()) {
      SCOPED_TRACE("solver=" + solver_name + " family=" + family +
                   " n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      const algo::SolverSpec& spec = algo::solver(solver_name);
      graph::Tree tree =
          graph::make_family_instance(family, n, seed, /*delta=*/3);
      algo::prepare_instance(tree, spec.needs, seed);
      algo::SolverConfig config;
      config.seed = seed;
      config.validate(spec);

      // One frozen instance, two kernel paths. Each path gets its own
      // program instance so seeded per-node state is regenerated
      // identically rather than shared.
      const std::unique_ptr<local::Program> scalar_program =
          spec.factory(tree, config);
      local::Engine scalar_engine(tree, local::KernelMode::kScalar);
      const local::RunStats scalar_stats =
          scalar_engine.run(*scalar_program);

      const std::unique_ptr<local::Program> simd_program =
          spec.factory(tree, config);
      local::Engine simd_engine(tree, local::KernelMode::kSimd);
      const local::RunStats simd_stats = simd_engine.run(*simd_program);

      ASSERT_FALSE(scalar_stats.truncated);
      EXPECT_EQ(scalar_stats.rounds, simd_stats.rounds);
      EXPECT_EQ(scalar_stats.total_rounds, simd_stats.total_rounds);
      EXPECT_EQ(scalar_stats.node_averaged, simd_stats.node_averaged);
      EXPECT_EQ(scalar_stats.termination_round,
                simd_stats.termination_round);
      EXPECT_EQ(scalar_stats.primaries(), simd_stats.primaries());
      EXPECT_EQ(scalar_stats.secondaries(), simd_stats.secondaries());

      // And the schedule both paths produced replays bit-identically on
      // the frozen legacy oracle.
      ReplayProgram replay(scalar_stats.termination_round);
      bench::legacy::Engine legacy(tree);
      const bench::legacy::RunStats legacy_stats =
          legacy.run(replay, scalar_stats.worst_case + 2);
      EXPECT_EQ(legacy_stats.rounds, scalar_stats.rounds);
      EXPECT_EQ(legacy_stats.total_rounds, scalar_stats.total_rounds);
      EXPECT_EQ(replay.observed(), scalar_stats.termination_round);
    }
  }
}

// Seeded three-way dispatch fuzz: every registered solver on freshly
// sampled random families, run under BOTH Program↔Engine contracts.
// The per-node virtual-hook path and the span-level batch-kernel path
// must agree *bit-identically* (rounds, termination schedule, outputs,
// node-average down to the ulp) and certify identically through the
// solver's own checker, and the shared schedule must replay
// bit-identically on the frozen legacy engine. This is the contract
// that lets `--dispatch auto` resolve to batch: a batch kernel that
// drifts from its pinned per-node reference twin fails here on the
// exact (solver, family, seed) triple.
TEST(DifferentialFuzz, PerNodeBatchLegacyAgreeOnRandomFamilies) {
  // path and random_attach carry long level paths, where the sleeping
  // batch kernels' deadline sleep fires.
  const std::vector<std::string> families = {
      "prufer", "galton_watson", "caterpillar", "spider", "path",
      "random_attach"};
  std::uint64_t seed = 0xD15BA7C4ED;
  for (int iter = 0; iter < 8; ++iter) {
    const std::string& family = families[static_cast<std::size_t>(iter) %
                                         families.size()];
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto n = static_cast<graph::NodeId>(64 + (seed >> 32) % 300);

    for (const std::string& solver_name : algo::solver_names()) {
      SCOPED_TRACE("solver=" + solver_name + " family=" + family +
                   " n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      const algo::SolverSpec& spec = algo::solver(solver_name);
      // Degree bound 3 where the family takes one (path is shape-bound).
      const int delta =
          graph::find_family(family)->default_delta == 0 ? 0 : 3;
      graph::Tree tree = graph::make_family_instance(family, n, seed, delta);
      algo::prepare_instance(tree, spec.needs, seed);
      algo::SolverConfig config;
      config.seed = seed;
      config.validate(spec);

      // One frozen instance, two dispatch contracts. Each contract gets
      // its own program instance so seeded per-node state is regenerated
      // identically rather than shared.
      const std::unique_ptr<local::Program> pernode_program =
          spec.factory(tree, config);
      local::Engine pernode_engine(tree, local::KernelMode::kAuto,
                                   local::DispatchMode::kPerNode);
      const local::RunStats pernode_stats =
          pernode_engine.run(*pernode_program);

      const std::unique_ptr<local::Program> batch_program =
          spec.factory(tree, config);
      local::Engine batch_engine(tree, local::KernelMode::kAuto,
                                 local::DispatchMode::kBatch);
      const local::RunStats batch_stats =
          batch_engine.run(*batch_program);

      ASSERT_FALSE(pernode_stats.truncated);
      EXPECT_EQ(pernode_stats.rounds, batch_stats.rounds);
      EXPECT_EQ(pernode_stats.total_rounds, batch_stats.total_rounds);
      EXPECT_EQ(pernode_stats.node_averaged, batch_stats.node_averaged);
      EXPECT_EQ(pernode_stats.termination_round,
                batch_stats.termination_round);
      EXPECT_EQ(pernode_stats.primaries(), batch_stats.primaries());
      EXPECT_EQ(pernode_stats.secondaries(), batch_stats.secondaries());

      // Certify identically through the solver's own checker binding
      // (each verdict graded against the program instance that produced
      // the run).
      const problems::CheckResult pernode_verdict =
          spec.certify(tree, *pernode_program, pernode_stats, config);
      const problems::CheckResult batch_verdict =
          spec.certify(tree, *batch_program, batch_stats, config);
      EXPECT_EQ(pernode_verdict.ok, batch_verdict.ok);
      EXPECT_EQ(pernode_verdict.reason, batch_verdict.reason);
      EXPECT_TRUE(pernode_verdict.ok) << pernode_verdict.reason;

      // And the schedule both contracts produced replays bit-identically
      // on the frozen legacy oracle.
      ReplayProgram replay(pernode_stats.termination_round);
      bench::legacy::Engine legacy(tree);
      const bench::legacy::RunStats legacy_stats =
          legacy.run(replay, pernode_stats.worst_case + 2);
      EXPECT_EQ(legacy_stats.rounds, pernode_stats.rounds);
      EXPECT_EQ(legacy_stats.total_rounds, pernode_stats.total_rounds);
      EXPECT_EQ(replay.observed(), pernode_stats.termination_round);
    }
  }
}

/// One program under per-node dispatch and, wrapped in a step counter,
/// under batch dispatch. Both runs must agree bit-identically and replay
/// bit-identically on the frozen legacy engine; returns the per-node
/// stats and the number of node-rounds the batch run stepped.
std::pair<local::RunStats, std::int64_t> pernode_batch_legacy_agree(
    const graph::Tree& tree, local::Program& pernode_program,
    local::Program& batch_program) {
  local::Engine pernode_engine(tree, local::KernelMode::kAuto,
                               local::DispatchMode::kPerNode);
  const local::RunStats pernode_stats = pernode_engine.run(pernode_program);

  test::StepCounter counter(batch_program, tree.size());
  local::Engine batch_engine(tree, local::KernelMode::kAuto,
                             local::DispatchMode::kBatch);
  // Bounded by the reference, so a node that never wakes shows up as a
  // truncated run instead of idling to the default round limit.
  const local::RunStats batch_stats =
      batch_engine.run(counter, pernode_stats.rounds);

  EXPECT_FALSE(pernode_stats.truncated);
  EXPECT_FALSE(batch_stats.truncated);
  EXPECT_EQ(pernode_stats.rounds, batch_stats.rounds);
  EXPECT_EQ(pernode_stats.total_rounds, batch_stats.total_rounds);
  EXPECT_EQ(pernode_stats.node_averaged, batch_stats.node_averaged);
  EXPECT_EQ(pernode_stats.termination_round, batch_stats.termination_round);
  EXPECT_EQ(pernode_stats.primaries(), batch_stats.primaries());
  EXPECT_EQ(pernode_stats.secondaries(), batch_stats.secondaries());

  ReplayProgram replay(pernode_stats.termination_round);
  bench::legacy::Engine legacy(tree);
  const bench::legacy::RunStats legacy_stats =
      legacy.run(replay, pernode_stats.worst_case + 2);
  EXPECT_EQ(legacy_stats.rounds, pernode_stats.rounds);
  EXPECT_EQ(legacy_stats.total_rounds, pernode_stats.total_rounds);
  EXPECT_EQ(replay.observed(), pernode_stats.termination_round);
  return {pernode_stats, counter.stepped()};
}

// Dedicated heavy generic_hier case for its batch-kernel port: the
// registry fuzz above only drives solvers at their default configs, so
// the k-hierarchical program's interesting machinery — the Exempt rules
// between phases, multi-gamma wave schedules, the level-k Cole-Vishkin
// reduction with a virtual-log* pad — never fires there. Here both
// variants run at k = 2 and k = 3 with explicit gamma profiles on
// structured lower-bound instances and random trees; per-node and batch
// dispatch must agree bit-identically, the coloring must pass the
// paper's hierarchical checker, and the shared schedule must replay
// bit-identically on the frozen legacy engine.
TEST(DifferentialFuzz, GenericHierHeavyPerNodeBatchLegacyAgree) {
  struct HierCase {
    std::string label;
    graph::Tree tree;
    problems::Variant variant;
    int k;
    std::vector<std::int64_t> gammas;
    std::int64_t pad;
  };
  std::vector<HierCase> cases;
  cases.push_back({"lower_bound_25_k2",
                   graph::make_hierarchical_lower_bound({6, 40}).tree,
                   problems::Variant::kTwoHalf, 2, {5}, 0});
  cases.push_back({"lower_bound_35_k3",
                   graph::make_hierarchical_lower_bound({5, 6, 14}).tree,
                   problems::Variant::kThreeHalf, 3, {4, 4}, 60});
  cases.push_back({"random_25_k3", graph::make_random_tree(520, 4, 77),
                   problems::Variant::kTwoHalf, 3, {4, 8}, 0});
  cases.push_back({"random_35_k2", graph::make_random_tree(480, 4, 91),
                   problems::Variant::kThreeHalf, 2, {6}, 40});

  std::uint64_t id_seed = 1337;
  for (HierCase& c : cases) {
    SCOPED_TRACE("case=" + c.label + " k=" + std::to_string(c.k));
    graph::assign_ids(c.tree, graph::IdScheme::kShuffled, id_seed++);
    const std::vector<int> levels = problems::compute_levels(c.tree, c.k);

    algo::GenericOptions options;
    options.variant = c.variant;
    options.k = c.k;
    options.gammas = c.gammas;
    options.symmetry_pad = c.pad;

    algo::GenericHierProgram pernode_program(c.tree, options, levels);
    algo::GenericHierProgram batch_program(c.tree, options, levels);
    const local::RunStats pernode_stats =
        pernode_batch_legacy_agree(c.tree, pernode_program, batch_program)
            .first;

    // Both runs produced the same output; grade it once through the
    // paper's own checker.
    const problems::CheckResult verdict =
        problems::check_hierarchical_coloring(c.tree, c.k, c.variant,
                                              pernode_stats.primaries());
    EXPECT_TRUE(verdict.ok) << verdict.reason;
  }
}

/// `t` with its node indices reversed (same ids, inputs and edges), so
/// that dispatch order — ascending index — runs the other way through
/// every component.
graph::Tree reversed(const graph::Tree& t) {
  const graph::NodeId n = t.size();
  graph::TreeBuilder b(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    b.set_local_id(n - 1 - v, t.local_id(v));
    b.set_input(n - 1 - v, t.input(v));
    for (const graph::NodeId u : t.neighbors(v)) {
      if (u > v) b.add_edge(n - 1 - v, n - 1 - u);
    }
  }
  return b.finalize();
}

// Dedicated heavy case for the sleeping batch kernels of pi35 and
// apoly: the registry fuzz drives them at default configs on plain
// families, where few Copy components wait. Here they run on the
// paper's weighted construction at k = 2 and 3 with explicit gammas and
// a virtual-log* pad, so pi35's Case-2 pruning (coupled across
// components through their Declines) and late Copy floods fire, and
// apoly runs both Algorithm A and its naive_all_copy ablation. Each
// instance also runs with its node indices reversed, so Copy members
// are dispatched both before and after their root.
TEST(DifferentialFuzz, WeightSolversHeavyPerNodeBatchLegacyAgree) {
  struct WeightCase {
    int delta;
    int d;
    int k;
    std::int64_t pad;  // virtual log* (pi35) / symmetry pad (apoly)
    std::int64_t target_n;
  };
  std::uint64_t id_seed = 4242;
  for (const WeightCase c :
       {WeightCase{7, 3, 2, 32, 6000}, WeightCase{6, 3, 3, 16, 4000},
        WeightCase{9, 5, 2, 64, 3000}, WeightCase{7, 4, 3, 24, 5000}}) {
    SCOPED_TRACE("delta=" + std::to_string(c.delta) +
                 " d=" + std::to_string(c.d) + " k=" + std::to_string(c.k));

    // Pi^{3.5}: the Decline-regime gammas are the skeleton lengths.
    const auto ell35 = core::lower_bound_lengths(
        core::alpha_profile_logstar(
            core::efficiency_x_prime(c.delta, c.d), c.k),
        static_cast<double>(c.pad), c.target_n);
    graph::WeightedInstance wc35 =
        graph::make_weighted_construction(ell35, c.delta);
    graph::assign_ids(wc35.tree, graph::IdScheme::kShuffled, id_seed++);
    const graph::Tree rev35 = reversed(wc35.tree);
    algo::Pi35Options pi35;
    pi35.k = c.k;
    pi35.d = c.d;
    pi35.symmetry_pad = c.pad;
    for (int i = 0; i + 1 < c.k; ++i) {
      pi35.gammas.push_back(std::max<std::int64_t>(
          2, wc35.skeleton_lengths[static_cast<std::size_t>(i)]));
    }
    for (const graph::Tree* tree : {&std::as_const(wc35.tree), &rev35}) {
      SCOPED_TRACE(tree == &rev35 ? "pi35 reversed" : "pi35");
      algo::Pi35Program pernode(*tree, pi35);
      algo::Pi35Program batch(*tree, pi35);
      const auto [stats, stepped] =
          pernode_batch_legacy_agree(*tree, pernode, batch);
      EXPECT_EQ(pernode.copies_kept(), batch.copies_kept());
      test::assert_valid(problems::check_weighted(
          *tree, c.k, c.d, problems::Variant::kThreeHalf, stats.output));
      // Case-2 pruning fired: fewer Copies survive than were planned.
      std::int64_t planned = 0;
      for (const algo::FdaRole role : pernode.plan().role) {
        planned += role == algo::FdaRole::kCopyRoot ||
                   role == algo::FdaRole::kCopyMember;
      }
      EXPECT_LT(pernode.copies_kept(), planned);
      EXPECT_GT(pernode.copies_kept(), 0);
      EXPECT_LT(stepped, stats.total_rounds);
    }

    // Pi^{2.5}: A_poly with the Lemma-33 gammas, then the ablation.
    const double x = core::efficiency_x(c.delta, c.d);
    const auto alphas = core::alpha_profile_poly(x, c.k);
    const auto ell25 = core::lower_bound_lengths(
        alphas, static_cast<double>(c.target_n), c.target_n);
    graph::WeightedInstance wc25 =
        graph::make_weighted_construction(ell25, c.delta);
    graph::assign_ids(wc25.tree, graph::IdScheme::kShuffled, id_seed++);
    const graph::Tree rev25 = reversed(wc25.tree);
    for (const graph::Tree* tree : {&std::as_const(wc25.tree), &rev25}) {
      for (const bool naive : {false, true}) {
        SCOPED_TRACE(std::string(naive ? "apoly naive_all_copy" : "apoly") +
                     (tree == &rev25 ? " reversed" : ""));
        algo::ApolyOptions apoly;
        apoly.k = c.k;
        apoly.d = c.d;
        apoly.gammas = core::gammas_from_profile(
            alphas, static_cast<double>(tree->size()));
        apoly.symmetry_pad = c.pad;
        apoly.naive_all_copy = naive;
        algo::ApolyProgram pernode(*tree, apoly);
        algo::ApolyProgram batch(*tree, apoly);
        const auto [stats, stepped] =
            pernode_batch_legacy_agree(*tree, pernode, batch);
        test::assert_valid(problems::check_weighted(
            *tree, c.k, c.d, problems::Variant::kTwoHalf, stats.output));
        EXPECT_LT(stepped, stats.total_rounds);
      }
    }
  }
}

// Sleeping nodes: the batch kernels of weight_aug and the generic 2.5
// solver park idle nodes, so on long paths the engine steps only a small
// fraction of the sum_v T_v node-rounds a per-node run steps — while the
// schedule and outputs stay those of the per-node reference. Counts
// steps through a forwarding program; takes no timings.
TEST(SleepingNodes, BatchStepsAFifthOfTheNodeRoundsOnPaths) {
  for (const std::string solver_name : {"weight_aug", "generic_hier_25"}) {
    SCOPED_TRACE("solver=" + solver_name);
    const algo::SolverSpec& spec = algo::solver(solver_name);
    const std::uint64_t seed = 11;
    graph::Tree tree = graph::make_family_instance("path", 5000, seed);
    algo::prepare_instance(tree, spec.needs, seed);
    algo::SolverConfig config;
    config.seed = seed;
    config.validate(spec);

    const std::unique_ptr<local::Program> pernode_program =
        spec.factory(tree, config);
    local::Engine pernode_engine(tree, local::KernelMode::kAuto,
                                 local::DispatchMode::kPerNode);
    const local::RunStats pernode_stats =
        pernode_engine.run(*pernode_program);

    const std::unique_ptr<local::Program> batch_program =
        spec.factory(tree, config);
    test::StepCounter counter(*batch_program, tree.size());
    local::Engine batch_engine(tree, local::KernelMode::kAuto,
                               local::DispatchMode::kBatch);
    // Bounded by the reference, so a node that never wakes shows up as a
    // truncated run instead of idling to the default round limit.
    const local::RunStats batch_stats =
        batch_engine.run(counter, pernode_stats.rounds);

    ASSERT_FALSE(pernode_stats.truncated);
    ASSERT_FALSE(batch_stats.truncated);
    EXPECT_EQ(pernode_stats.termination_round,
              batch_stats.termination_round);
    EXPECT_EQ(pernode_stats.primaries(), batch_stats.primaries());
    EXPECT_EQ(pernode_stats.secondaries(), batch_stats.secondaries());
    EXPECT_TRUE(spec.certify(tree, *batch_program, batch_stats, config).ok);
    EXPECT_LE(counter.stepped() * 5, batch_stats.total_rounds)
        << "stepped " << counter.stepped() << " of "
        << batch_stats.total_rounds << " node-rounds";
  }
}

// Truncation is unchanged by sleeping: cutting weight_aug@path below
// its worst case, both dispatch modes censor the same survivors at the
// same round and report the same alive trajectory (which counts alive
// nodes, asleep or not).
TEST(SleepingNodes, TruncatedWeightAugAgreesAcrossDispatch) {
  const algo::SolverSpec& spec = algo::solver("weight_aug");
  const std::uint64_t seed = 5;
  graph::Tree tree = graph::make_family_instance("path", 3000, seed);
  algo::prepare_instance(tree, spec.needs, seed);
  algo::SolverConfig config;
  config.seed = seed;
  config.validate(spec);

  const std::unique_ptr<local::Program> full = spec.factory(tree, config);
  const std::int64_t worst = local::Engine(tree).run(*full).worst_case;
  ASSERT_GT(worst, 4);

  for (const std::int64_t cap : {worst / 3, worst - 1}) {
    SCOPED_TRACE("max_rounds=" + std::to_string(cap));
    const std::unique_ptr<local::Program> pernode_program =
        spec.factory(tree, config);
    local::Engine pernode_engine(tree, local::KernelMode::kAuto,
                                 local::DispatchMode::kPerNode);
    local::RunProfile pernode_profile;
    const local::RunStats pernode_stats =
        pernode_engine.run(*pernode_program, cap, &pernode_profile);

    const std::unique_ptr<local::Program> batch_program =
        spec.factory(tree, config);
    local::Engine batch_engine(tree, local::KernelMode::kAuto,
                               local::DispatchMode::kBatch);
    local::RunProfile batch_profile;
    const local::RunStats batch_stats =
        batch_engine.run(*batch_program, cap, &batch_profile);

    EXPECT_TRUE(pernode_stats.truncated);
    EXPECT_EQ(pernode_stats.truncated, batch_stats.truncated);
    EXPECT_GT(pernode_stats.unterminated, 0);
    EXPECT_EQ(pernode_stats.unterminated, batch_stats.unterminated);
    EXPECT_EQ(pernode_stats.rounds, batch_stats.rounds);
    EXPECT_EQ(pernode_stats.termination_round,
              batch_stats.termination_round);
    EXPECT_EQ(pernode_stats.primaries(), batch_stats.primaries());
    EXPECT_EQ(pernode_stats.secondaries(), batch_stats.secondaries());
    EXPECT_EQ(pernode_profile.alive_per_round,
              batch_profile.alive_per_round);
    EXPECT_EQ(pernode_profile.term_count, batch_profile.term_count);
  }
}

}  // namespace
}  // namespace lcl

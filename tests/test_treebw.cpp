// The black-white tree solver (Definition 70, Sections 11.3-11.5):
// label-set sweeps over a rake-and-compress decomposition solve edge
// LCLs on trees; the independent checker certifies every solution, and
// unsolvable problems are detected via empty classes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/bw_generic.hpp"
#include "algo/registry.hpp"
#include "bw/tree_problem.hpp"
#include "decomp/rake_compress.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "problems/lclgen.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;

/// The decomposition the generic solver expects.
decomp::Decomposition solver_decomposition(const Tree& t) {
  return decomp::rake_compress(t, bw::kDecompGamma, bw::kDecompEll,
                               /*split_paths=*/true);
}

void solve_and_check(const Tree& t, const bw::TreeBwProblem& p,
                     bool expect_solved = true) {
  const auto res = bw::solve_tree_bw(t, p, solver_decomposition(t),
                                     bw::EdgeIndex::build(t));
  if (!expect_solved) {
    EXPECT_FALSE(res.solved) << p.name;
    return;
  }
  ASSERT_TRUE(res.solved) << p.name << ": " << res.failure;
  const std::string err = bw::check_tree_bw(t, p, res.edge_label);
  EXPECT_EQ(err, "") << p.name;
}

/// The O(sum deg^2) builder EdgeIndex::build replaced, frozen as the
/// oracle: ids in (lower endpoint, port) order, each mirrored by scanning
/// the lower endpoint's whole adjacency.
std::vector<std::int64_t> reference_edge_ids(const Tree& t) {
  const auto off = t.offsets();
  std::vector<std::int64_t> id(t.adjacency().size(), -1);
  std::int64_t next = 0;
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto nb = t.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] > v) {
        id[static_cast<std::size_t>(off[static_cast<std::size_t>(v)]) + p] =
            next++;
      }
    }
  }
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto nb = t.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] >= v) continue;
      const auto unb = t.neighbors(nb[p]);
      for (std::size_t q = 0; q < unb.size(); ++q) {
        if (unb[q] == v) {
          id[static_cast<std::size_t>(off[static_cast<std::size_t>(v)]) +
             p] = id[static_cast<std::size_t>(
                         off[static_cast<std::size_t>(nb[p])]) +
                     q];
        }
      }
    }
  }
  return id;
}

TEST(EdgeIndex, LinearBuildMatchesQuadraticReference) {
  for (const std::string& family : graph::family_names()) {
    for (const NodeId n : {2, 3, 50, 2000}) {
      for (const std::uint64_t seed : {1, 2}) {
        SCOPED_TRACE(family + " n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        const Tree t = graph::make_family_instance(family, n, seed);
        const bw::EdgeIndex idx = bw::EdgeIndex::build(t);
        EXPECT_EQ(idx.id, reference_edge_ids(t));
        EXPECT_EQ(idx.edge_count,
                  static_cast<std::int64_t>(t.adjacency().size() / 2));
      }
    }
  }
  // A 20k-node star: the hub's mirror scan made the old builder
  // quadratic in the hub degree.
  const Tree star = graph::make_star(20000);
  EXPECT_EQ(bw::EdgeIndex::build(star).id, reference_edge_ids(star));
}

TEST(TreeBw, FreeProblemOnEverything) {
  solve_and_check(graph::make_path(50), bw::make_bw_free(2));
  solve_and_check(graph::make_star(7), bw::make_bw_free(3));
  solve_and_check(graph::make_random_tree(500, 5, 1), bw::make_bw_free(2));
}

TEST(TreeBw, EdgeColoringMirrorsTheRigidityClassification) {
  // Edge-2-coloring of a path is a Theta(n)-rigid problem (its node
  // analog classifies kLinear): the generic label-set machinery MUST
  // fail on it — compress chains force parity-coupled classes whose
  // independent restrictions cannot be combined globally. This is the
  // same refusal the testing procedure reports for 2-coloring.
  solve_and_check(graph::make_path(200), bw::make_bw_edge_coloring(2),
                  /*expect_solved=*/false);
  // Three colors make the problem flexible (Theta(log* n) analog): the
  // generic solver succeeds.
  solve_and_check(graph::make_path(201), bw::make_bw_edge_coloring(3));
  // A star with 5 leaves needs 5 colors; 4 must fail.
  solve_and_check(graph::make_star(5), bw::make_bw_edge_coloring(5));
  solve_and_check(graph::make_star(5), bw::make_bw_edge_coloring(4),
                  /*expect_solved=*/false);
}

class TreeBwRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeBwRandom, EdgeColoringOnRandomTrees) {
  const std::uint64_t seed = GetParam();
  const Tree t = graph::make_random_tree(400, 4, seed);
  solve_and_check(t, bw::make_bw_edge_coloring(4));
}

TEST_P(TreeBwRandom, SinklessOrientationOnRandomTrees) {
  const std::uint64_t seed = GetParam();
  const Tree t = graph::make_random_tree(400, 4, seed + 50);
  solve_and_check(t, bw::make_bw_sinkless());
}

TEST_P(TreeBwRandom, WeakMatchingOnRandomTrees) {
  const std::uint64_t seed = GetParam();
  const Tree t = graph::make_random_tree(400, 5, seed + 99);
  solve_and_check(t, bw::make_bw_weak_matching());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeBwRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(TreeBw, CaterpillarMixesChainsAndRakes) {
  const Tree t = graph::make_caterpillar(120, 1);
  solve_and_check(t, bw::make_bw_edge_coloring(4));
  solve_and_check(t, bw::make_bw_sinkless());
  solve_and_check(t, bw::make_bw_weak_matching());
}

TEST(TreeBw, CheckerRejectsCorruption) {
  const Tree t = graph::make_path(30);
  const auto p = bw::make_bw_edge_coloring(3);
  auto res = bw::solve_tree_bw(t, p, solver_decomposition(t),
                               bw::EdgeIndex::build(t));
  ASSERT_TRUE(res.solved);
  res.edge_label[5] = res.edge_label[4];  // adjacent edges same color
  EXPECT_NE(bw::check_tree_bw(t, p, res.edge_label), "");
}

TEST(TreeBw, HierarchicalInstances) {
  // The Figure-3 lower-bound tree as a black-white substrate.
  const auto inst = graph::make_hierarchical_lower_bound({5, 8});
  solve_and_check(inst.tree, bw::make_bw_edge_coloring(4));
  solve_and_check(inst.tree, bw::make_bw_sinkless());
}

TEST(TreeBw, RejectsMismatchedDecompositionOrEdgeIndex) {
  const Tree t = graph::make_random_tree(200, 4, 5);
  const Tree other = graph::make_random_tree(150, 4, 5);
  const auto p = bw::make_bw_edge_coloring(4);
  const bw::EdgeIndex edges = bw::EdgeIndex::build(t);
  const decomp::Decomposition dec = solver_decomposition(t);
  // Decomposition or edge index of another tree.
  EXPECT_THROW((void)bw::solve_tree_bw(t, p, solver_decomposition(other),
                                       edges),
               std::invalid_argument);
  EXPECT_THROW((void)bw::solve_tree_bw(t, p, dec,
                                       bw::EdgeIndex::build(other)),
               std::invalid_argument);
  EXPECT_THROW((void)bw::solve_tree_bw_global(t, p,
                                              bw::EdgeIndex::build(other)),
               std::invalid_argument);
  // Decompositions with other parameters than (gamma=1, ell=4, proper).
  EXPECT_THROW((void)bw::solve_tree_bw(
                   t, p, decomp::rake_compress(t, 2, bw::kDecompEll, true),
                   edges),
               std::invalid_argument);
  EXPECT_THROW((void)bw::solve_tree_bw(
                   t, p, decomp::rake_compress(t, bw::kDecompGamma, 3, true),
                   edges),
               std::invalid_argument);
  EXPECT_THROW((void)bw::solve_tree_bw(
                   t, p,
                   decomp::rake_compress(t, bw::kDecompGamma,
                                         bw::kDecompEll, false),
                   edges),
               std::invalid_argument);
  // The matching inputs solve.
  const auto res = bw::solve_tree_bw(t, p, dec, edges);
  ASSERT_TRUE(res.solved) << res.failure;
  EXPECT_EQ(bw::check_tree_bw(t, p, res.edge_label), "");
}

/// 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void i64(std::int64_t x) {
    for (int k = 0; k < 8; ++k) {
      byte(static_cast<unsigned char>((static_cast<std::uint64_t>(x) >>
                                       (8 * k)) &
                                      0xffu));
    }
  }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

TEST(BwGeneric, WitnessesArePinned) {
  // The generic solver's mode, witness labeling and failure text over
  // 1200 sampled (problem, instance) pairs, hashed. Any change to the
  // decomposition, the enumeration order of the label-set sweeps or the
  // fallback shows as a different hash.
  Fnv1a hash;
  std::array<int, 4> modes{};
  for (const char* fam :
       {"random_attach", "path", "galton_watson", "binary_pendant"}) {
    for (std::uint64_t ps = 0; ps < 300; ++ps) {
      Tree t = graph::make_family_instance(
          fam, static_cast<NodeId>(300 + ps), 1000 + ps, 0);
      algo::prepare_instance(t, algo::kNeedShuffledIds, 1000 + ps);
      const algo::BwGenericProgram prog(t, problems::sample_table(ps));
      ++modes[static_cast<std::size_t>(prog.mode())];
      hash.i64(static_cast<std::int64_t>(prog.mode()));
      hash.i64(static_cast<std::int64_t>(prog.edge_labels().size()));
      for (const int l : prog.edge_labels()) hash.i64(l);
      hash.str(prog.failure());
    }
  }
  for (std::size_t m = 0; m < modes.size(); ++m) {
    EXPECT_GT(modes[m], 0) << "mode " << m << " not covered";
  }
  EXPECT_EQ(hash.h, 10422234814215172452ull)
      << "modes " << modes[0] << "/" << modes[1] << "/" << modes[2] << "/"
      << modes[3];
}

}  // namespace
}  // namespace lcl

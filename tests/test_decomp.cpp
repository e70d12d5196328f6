// Rake-and-compress decompositions (Definitions 71/43, Lemma 72):
// validity of both variants and the layer-count bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "algo/registry.hpp"
#include "decomp/rake_compress.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using decomp::LayerKind;
using graph::NodeId;
using graph::Tree;

TEST(Decomp, PathProperDecomposition) {
  const Tree t = graph::make_path(1000);
  const auto d = decomp::rake_compress(t, 1, 4, /*split_paths=*/true);
  EXPECT_EQ(decomp::validate_decomposition(t, d), "");
  // A bare path compresses almost entirely in layer 1.
  std::int64_t compress1 = 0;
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto& a = d.assignment[static_cast<std::size_t>(v)];
    if (a.kind == LayerKind::kCompress && a.layer == 1) ++compress1;
  }
  EXPECT_GT(compress1, 780);
}

TEST(Decomp, RelaxedKeepsWholeChains) {
  const Tree t = graph::make_path(100);
  const auto d = decomp::rake_compress(t, 1, 4, /*split_paths=*/false);
  EXPECT_EQ(decomp::validate_decomposition(t, d), "");
  // One chain of ~98 compress nodes in layer 1 (relaxed: no [ell, 2ell]
  // upper bound).
  std::int64_t compress1 = 0;
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto& a = d.assignment[static_cast<std::size_t>(v)];
    if (a.kind == LayerKind::kCompress) ++compress1;
  }
  EXPECT_GT(compress1, 90);
}

TEST(Decomp, GammaOneGivesLogLayers) {
  // Lemma 72: gamma = 1 => O(log n) layers.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Tree t = graph::make_random_tree(20000, 4, seed);
    const auto d = decomp::rake_compress(t, 1, 4, true);
    EXPECT_EQ(decomp::validate_decomposition(t, d), "");
    EXPECT_LE(d.num_layers,
              4 * static_cast<int>(std::log2(t.size())) + 8);
  }
}

TEST(Decomp, GammaRootKGivesKLayers) {
  // Lemma 72: gamma ~ n^{1/k} (ell/2)^{1-1/k} => at most k rake layers.
  const Tree t = graph::make_random_tree(10000, 4, 3);
  for (int k : {2, 3}) {
    const int gamma = static_cast<int>(
        std::ceil(std::pow(static_cast<double>(t.size()),
                           1.0 / static_cast<double>(k)) *
                  std::pow(2.0, 1.0 - 1.0 / k)));
    const auto d = decomp::rake_compress(t, gamma, 4, true);
    EXPECT_EQ(decomp::validate_decomposition(t, d), "");
    EXPECT_LE(d.num_layers, k) << "k=" << k << " gamma=" << gamma;
  }
}

TEST(Decomp, BalancedTreeRakesInOneLayer) {
  // Balanced weight trees never compress: depth log(w) < gamma.
  const Tree t = graph::make_balanced_weight_tree(5000, 5);
  const auto d = decomp::rake_compress(t, 100, 4, true);
  EXPECT_EQ(decomp::validate_decomposition(t, d), "");
  EXPECT_EQ(d.num_layers, 1);
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(d.assignment[static_cast<std::size_t>(v)].kind,
              LayerKind::kRake);
  }
}

TEST(Decomp, CaterpillarMixesRakeAndCompress) {
  const Tree t = graph::make_caterpillar(300, 1);
  const auto d = decomp::rake_compress(t, 1, 4, true);
  EXPECT_EQ(decomp::validate_decomposition(t, d), "");
  bool has_rake = false, has_compress = false;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (d.assignment[static_cast<std::size_t>(v)].kind == LayerKind::kRake) {
      has_rake = true;
    } else {
      has_compress = true;
    }
  }
  EXPECT_TRUE(has_rake);
  EXPECT_TRUE(has_compress);
}

TEST(Decomp, AssignStepsAreMonotoneInLayers) {
  const Tree t = graph::make_random_tree(2000, 5, 9);
  const auto d = decomp::rake_compress(t, 2, 4, true);
  EXPECT_EQ(decomp::validate_decomposition(t, d), "");
  for (NodeId v = 0; v < t.size(); ++v) {
    for (NodeId u : t.neighbors(v)) {
      const auto kv = decomp::layer_order_key(
          d.assignment[static_cast<std::size_t>(v)]);
      const auto ku = decomp::layer_order_key(
          d.assignment[static_cast<std::size_t>(u)]);
      if (kv < ku) {
        EXPECT_LE(d.assign_step[static_cast<std::size_t>(v)],
                  d.assign_step[static_cast<std::size_t>(u)]);
      }
    }
  }
}

TEST(Decomp, RejectsCycle) {
  const Tree t = graph::make_cycle(50);
  EXPECT_THROW(decomp::rake_compress(t, 1, 100, true), std::runtime_error);
}

TEST(Decomp, PinnedLeavesOnUnpinnedHubThrowAtOnce) {
  // Pinned leaves wait on their unpinned hub, which never reaches degree
  // <= 1: the first layer removes nothing, so no layer ever can. The
  // default layer budget is 2^20; the throw must come from the stall.
  const Tree t = graph::make_star(4000);
  std::vector<char> pinned(static_cast<std::size_t>(t.size()), 1);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.degree(v) > 1) pinned[static_cast<std::size_t>(v)] = 0;
  }
  try {
    (void)decomp::rake_compress(t, 1, 4, true, 1 << 20, &pinned);
    FAIL() << "stalled decomposition did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no progress"), std::string::npos)
        << e.what();
  }
}

// The full-scan rake-and-compress: every rake sub-step scans all n nodes.
// It is the reference the worklist implementation must match exactly
// (assignment, peel steps, layer count and exception text).
decomp::Decomposition scan_rake_compress(const Tree& tree, int gamma,
                                         int ell, bool split_paths,
                                         int max_layers,
                                         const std::vector<char>* pinned) {
  const auto n = static_cast<std::size_t>(tree.size());
  auto is_pinned = [&](NodeId v) {
    return pinned != nullptr && (*pinned)[static_cast<std::size_t>(v)] != 0;
  };
  std::vector<int> degree(n);
  std::vector<char> removed(n, 0);
  for (NodeId v = 0; v < tree.size(); ++v) {
    degree[static_cast<std::size_t>(v)] = tree.degree(v);
  }
  decomp::Decomposition out;
  out.gamma = gamma;
  out.ell = ell;
  out.relaxed = !split_paths;
  out.assignment.resize(n);
  out.assign_step.assign(n, 0);
  int step = 0;
  auto alive = [&](NodeId v) { return !removed[static_cast<std::size_t>(v)]; };
  auto remove = [&](NodeId v, decomp::LayerAssignment a) {
    removed[static_cast<std::size_t>(v)] = 1;
    out.assignment[static_cast<std::size_t>(v)] = a;
    out.assign_step[static_cast<std::size_t>(v)] = step;
    for (NodeId u : tree.neighbors(v)) {
      if (alive(u)) --degree[static_cast<std::size_t>(u)];
    }
  };

  std::int64_t remaining = tree.size();
  int layer = 0;
  while (remaining > 0) {
    ++layer;
    if (layer > max_layers) {
      throw std::runtime_error("rake_compress: layer budget exceeded");
    }
    const std::int64_t remaining_at_start = remaining;
    for (int j = 1; j <= gamma && remaining > 0; ++j) {
      ++step;
      std::vector<char> eligible(n, 0);
      for (NodeId v = 0; v < tree.size(); ++v) {
        if (!alive(v) || degree[static_cast<std::size_t>(v)] > 1) continue;
        if (is_pinned(v) && degree[static_cast<std::size_t>(v)] == 1) {
          NodeId last = graph::kInvalidNode;
          for (NodeId u : tree.neighbors(v)) {
            if (alive(u)) last = u;
          }
          if (!(last != graph::kInvalidNode && is_pinned(last) &&
                tree.local_id(v) < tree.local_id(last))) {
            continue;
          }
        }
        eligible[static_cast<std::size_t>(v)] = 1;
      }
      std::vector<NodeId> peel;
      for (NodeId v = 0; v < tree.size(); ++v) {
        if (!eligible[static_cast<std::size_t>(v)]) continue;
        bool deferred = false;
        for (NodeId u : tree.neighbors(v)) {
          if (alive(u) && eligible[static_cast<std::size_t>(u)] &&
              tree.local_id(u) < tree.local_id(v)) {
            deferred = true;
          }
        }
        if (!deferred) peel.push_back(v);
      }
      if (peel.empty()) break;
      for (NodeId v : peel) remove(v, {LayerKind::kRake, layer, j});
      remaining -= static_cast<std::int64_t>(peel.size());
    }
    if (remaining == 0) break;

    ++step;
    std::vector<char> in_chain(n, 0);
    std::vector<char> visited(n, 0);
    for (NodeId v = 0; v < tree.size(); ++v) {
      in_chain[static_cast<std::size_t>(v)] =
          alive(v) && !is_pinned(v) && degree[static_cast<std::size_t>(v)] == 2;
    }
    std::vector<std::vector<NodeId>> chains;
    for (NodeId v = 0; v < tree.size(); ++v) {
      if (!in_chain[static_cast<std::size_t>(v)] ||
          visited[static_cast<std::size_t>(v)]) {
        continue;
      }
      int chain_deg = 0;
      for (NodeId u : tree.neighbors(v)) {
        chain_deg += alive(u) && in_chain[static_cast<std::size_t>(u)];
      }
      if (chain_deg == 2) continue;
      std::vector<NodeId> chain;
      NodeId prev = graph::kInvalidNode;
      NodeId cur = v;
      while (cur != graph::kInvalidNode) {
        visited[static_cast<std::size_t>(cur)] = 1;
        chain.push_back(cur);
        NodeId next = graph::kInvalidNode;
        for (NodeId u : tree.neighbors(cur)) {
          if (u != prev && alive(u) && in_chain[static_cast<std::size_t>(u)] &&
              !visited[static_cast<std::size_t>(u)]) {
            next = u;
            break;
          }
        }
        prev = cur;
        cur = next;
      }
      chains.push_back(std::move(chain));
    }
    for (const auto& chain : chains) {
      const auto len = static_cast<std::int64_t>(chain.size());
      if (len < ell) continue;
      std::int64_t idx = 0;
      while (idx < len) {
        std::int64_t seg_end = split_paths ? idx + ell : len;
        if (len - seg_end - 1 < ell) seg_end = len;
        for (std::int64_t t = idx; t < seg_end; ++t) {
          remove(chain[static_cast<std::size_t>(t)],
                 {LayerKind::kCompress, layer, 0});
          --remaining;
        }
        idx = seg_end + 1;
      }
    }
    if (remaining == remaining_at_start) {
      throw std::runtime_error(
          "rake_compress: no progress (graph contains a cycle, or pinned "
          "nodes can never rake)");
    }
  }
  out.num_layers = layer;
  return out;
}

/// Outcome of one decomposition call: the decomposition or the error.
struct Outcome {
  decomp::Decomposition dec;
  std::string error;
};

template <typename F>
Outcome outcome_of(F&& run) {
  Outcome o;
  try {
    o.dec = run();
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

TEST(RakeCompress, WorklistMatchesScanReference) {
  int cases = 0, thrown = 0;
  for (const graph::Family& fam : graph::all_families()) {
    if (!fam.is_tree) continue;
    for (const NodeId n : {1, 2, 7, 60, 500, 3000}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Tree t = graph::make_family_instance(fam.name, n, seed);
        algo::prepare_instance(t, algo::kNeedShuffledIds, seed);
        const auto size = static_cast<std::size_t>(t.size());
        std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(n));
        std::vector<std::vector<char>> masks;
        for (const int percent : {20, 50}) {
          std::vector<char> m(size, 0);
          for (auto& c : m) c = static_cast<int>(rng() % 100) < percent;
          masks.push_back(std::move(m));
        }
        for (const int gamma : {1, 2, 3, 8, 64, static_cast<int>(n)}) {
          for (const int ell : {1, 4}) {
            for (const bool split : {true, false}) {
              for (int mi = -1; mi < static_cast<int>(masks.size()); ++mi) {
                const std::vector<char>* pinned =
                    mi < 0 ? nullptr : &masks[static_cast<std::size_t>(mi)];
                const Outcome got = outcome_of([&] {
                  return decomp::rake_compress(t, gamma, ell, split, 200,
                                               pinned);
                });
                const Outcome want = outcome_of([&] {
                  return scan_rake_compress(t, gamma, ell, split, 200,
                                            pinned);
                });
                const std::string where =
                    fam.name + " n=" + std::to_string(n) +
                    " seed=" + std::to_string(seed) +
                    " gamma=" + std::to_string(gamma) +
                    " ell=" + std::to_string(ell) +
                    " split=" + std::to_string(split) +
                    " mask=" + std::to_string(mi);
                ++cases;
                thrown += !want.error.empty();
                ASSERT_EQ(got.error, want.error) << where;
                if (!want.error.empty()) continue;
                ASSERT_EQ(got.dec.num_layers, want.dec.num_layers) << where;
                ASSERT_EQ(got.dec.assign_step, want.dec.assign_step) << where;
                for (std::size_t v = 0; v < size; ++v) {
                  const auto& a = got.dec.assignment[v];
                  const auto& b = want.dec.assignment[v];
                  ASSERT_TRUE(a.kind == b.kind && a.layer == b.layer &&
                              a.sublayer == b.sublayer)
                      << where << " node " << v;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 17280);
  // Both outcomes are exercised: stalled pinned cases and completed ones.
  EXPECT_GT(thrown, 0);
  EXPECT_LT(thrown, cases);
}

TEST(RakeCompress, HugeGammaOnLongPath) {
  // gamma = n on a long path: one layer of ~n/2 rake sub-steps. A rake
  // sub-step that scanned all n nodes would make this quadratic.
  const Tree t = graph::make_path(400000);
  const auto d = decomp::rake_compress(t, 400000, 4, true);
  EXPECT_EQ(decomp::validate_decomposition(t, d), "");
  EXPECT_EQ(d.num_layers, 1);
}

}  // namespace
}  // namespace lcl

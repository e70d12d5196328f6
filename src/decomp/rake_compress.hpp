// Rake-and-compress tree decompositions (Section 11.2; Definitions 71, 43).
//
// Iteration i of the procedure:
//   * gamma rake sub-steps: remove nodes of remaining degree <= 1
//     (sublayers V^R_{i,1} .. V^R_{i,gamma});
//   * one compress step: remove maximal chains of remaining-degree-2 nodes
//     of length >= ell (layer V^C_i). In the *proper* variant the chains
//     are first split into segments of length in [ell, 2*ell] by promoting
//     splitter nodes to the next rake layer; the *relaxed* variant
//     (Definition 43) keeps whole chains.
//
// Lemma 72: gamma = n^{1/k} gives at most k rake layers in O(k n^{1/k})
// distributed rounds; gamma = 1 gives O(log n) layers in O(log n) rounds.
//
// `assign_step` records the peeling time at which a node was removed (one
// unit per rake sub-step / compress step); it is the distributed round in
// which the node learns its layer, used by solvers for round charging.
//
// Cost: O(n * L) time for L layers, independent of gamma. Rake sub-steps
// scan a worklist of the alive degree-<=1 nodes (not all n nodes), so all
// rake sub-steps together cost O(n + number of sub-steps); the compress
// step scans the nodes still alive, once per layer. With gamma = 1 the
// alive count decays geometrically over the layers, so the whole
// decomposition is O(n).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/tree.hpp"

namespace lcl::decomp {

using graph::NodeId;
using graph::Tree;

/// Kind of layer a node belongs to.
enum class LayerKind : int { kRake = 0, kCompress = 1 };

/// Per-node layer assignment.
struct LayerAssignment {
  LayerKind kind = LayerKind::kRake;
  int layer = 0;     ///< i, 1-based
  int sublayer = 0;  ///< j for rake layers (1..gamma), 0 for compress
};

/// Total order on (sub)layers per Definition 75:
/// V^R_{i,j} < V^R_{i',j'} iff (i,j) < (i',j'); V^R_{i,j} < V^C_i;
/// V^C_i < V^R_{i+1,j}. Encoded so that integer comparison decides.
[[nodiscard]] inline std::int64_t layer_order_key(const LayerAssignment& a) {
  // Rake (i, j) -> 2*i*10^6 + j ; Compress i -> (2*i+1)*10^6.
  const std::int64_t block =
      a.kind == LayerKind::kRake ? 2 * a.layer : 2 * a.layer + 1;
  return block * 1000000 + a.sublayer;
}

/// A computed decomposition.
struct Decomposition {
  int gamma = 0;
  int ell = 0;
  int num_layers = 0;  ///< number of iterations actually used (L)
  bool relaxed = false;
  std::vector<LayerAssignment> assignment;  ///< per node
  std::vector<int> assign_step;  ///< peeling time (>=1) per node
};

/// Computes a (gamma, ell, L)-decomposition.
///
/// If `split_paths` is true, long chains are split into [ell, 2*ell]
/// segments (proper decomposition, Definition 71); splitters land in the
/// next rake layer. Otherwise whole chains are compressed (relaxed,
/// Definition 43). Throws std::runtime_error if more than `max_layers`
/// iterations are needed, or as soon as one iteration removes no node
/// (a cycle, or pinned nodes that can never rake).
///
/// `pinned` (optional, per node) delays a node's removal until it is the
/// last of its component: pinned nodes neither compress nor rake while a
/// non-pinned neighbor remains. The weight-augmented solver pins the
/// active-adjacent weight nodes so that Definition 67's rule 3 (point at
/// the active) never conflicts with an in-tree orientation.
[[nodiscard]] Decomposition rake_compress(const Tree& tree, int gamma,
                                          int ell, bool split_paths,
                                          int max_layers = 1 << 20,
                                          const std::vector<char>* pinned =
                                              nullptr);

/// Validation of the decomposition properties (Definition 71 resp. 43):
/// compress components are chains of the right length whose endpoints have
/// exactly one higher-layer neighbor; rake components have <= 1 node with
/// a higher-layer neighbor; rake sublayers are independent sets with <= 1
/// higher neighbor. Returns an empty string on success, else the first
/// violation.
[[nodiscard]] std::string validate_decomposition(const Tree& tree,
                                                 const Decomposition& d);

}  // namespace lcl::decomp

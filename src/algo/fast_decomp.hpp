// The adapted Fast Decomposition Algorithm (Section 8.1): a d-free-weight
// solver with O(1) node-averaged and O(log n) worst-case complexity,
// used by the Pi^{3.5} solver on the weight subgraph.
//
// One iteration = one rake step (remove alive degree <= 1 nodes) plus one
// relaxed compress step (whole alive chains of length >= ell = 3), with
// the Figure-5 edge orientations: a raked node's edge from its remaining
// alive neighbor points *into* the raked node, and the first/last ell
// edges of a compress chain point inward. "Reachable from v through a
// consistently oriented path" is then exactly the earlier-assigned
// subtree hanging below v, which grows by O(1) depth per iteration.
//
// Adapted output rules (Section 8.1):
//  * pre-step: input-A nodes within distance 5 connect the path between
//    them with Connect and leave the decomposition;
//  * when an input-A node is assigned, it outputs Copy and floods Copy
//    through its oriented subtree C(v); its still-alive / same-chain
//    neighbors become *border* nodes and Decline;
//  * border nodes propagate Decline through their subtree once assigned;
//  * local maxima (Definition 42) Decline and propagate;
//  * chain nodes at distance >= ell from both chain ends Decline and
//    propagate.
//
// The planner below computes roles, rounds (3 engine rounds per
// iteration, propagation one hop per round) and the C(v) component
// structure; the Lemma-52 pruning C(v) -> C'(v) is decided at run time by
// the Pi^{3.5} program (it depends on whether the active neighbor already
// terminated) via `prune_component`.
//
// Cost. Alive degrees are counters, the rake and degree-2 candidates
// come from worklists the removals feed, and the Rule-3 scan walks a
// list of the assigned output-free nodes, compacted once per iteration.
// So iteration i costs O(Delta * (alive_i + unfinished_i)) rather than
// O(n * Delta): O(n * Delta) in total, as the alive nodes decay
// geometrically and, with early resolution, so do the unfinished ones
// (Corollary 47). `prune_component` costs O(|C| * Delta) and allocates
// nothing once its `PruneScratch` is sized.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/tree.hpp"

namespace lcl::algo {

using graph::NodeId;
using graph::Tree;

/// Role of a weight node after the adapted fast decomposition.
enum class FdaRole : int {
  kInactive = 0,  ///< not a participant (active node)
  kConnect,       ///< pre-step Connect path
  kDecline,       ///< declines at a known round
  kCopyRoot,      ///< input-A node owning a component C(v)
  kCopyMember,    ///< member of some C(v), flood-listens
};

/// Plan produced by the adapted fast decomposition.
struct FastDecompPlan {
  std::vector<FdaRole> role;
  /// kConnect/kDecline: termination round. kCopyRoot: the decision round
  /// rho_dec at which Case 1 (flood everything) vs Case 2 (prune first)
  /// is resolved. kCopyMember: unused (0).
  std::vector<std::int64_t> ready_round;
  std::vector<NodeId> comp_root;   ///< C(v) root per member (or invalid)
  std::vector<int> comp_depth;     ///< depth within C(v) (-1 if none)
  /// Position of a member in its component's BFS order (-1 if none).
  std::vector<int> comp_index;
  std::vector<int> flood_parent_port;  ///< port toward depth-1 neighbor
  std::vector<std::vector<NodeId>> components;  ///< members per component,
                                                ///< BFS order from root
  std::vector<int> comp_of_root;   ///< root node -> component index
  int iterations = 0;
  /// |{nodes without output after iteration i}| — Corollary 47's decay.
  std::vector<std::int64_t> unfinished_after_iteration;
};

/// The weight subgraph of a weighted instance (inputs
/// graph::WeightInput): participants are the weight nodes, input-A nodes
/// the weight nodes adjacent to at least one active node.
struct WeightSubgraph {
  std::vector<char> participates;
  std::vector<char> is_a;
};
[[nodiscard]] WeightSubgraph weight_subgraph(const Tree& tree);

/// Levels of the active subgraph (weight nodes masked out), as the
/// embedded generic algorithm of A_poly and Pi^{3.5} needs them.
[[nodiscard]] std::vector<int> active_levels(const Tree& tree, int k);

/// Runs the planner on the subgraph induced by `participates`, with
/// `is_a` marking input-A nodes (weight nodes adjacent to an active).
/// `early_resolution` toggles the eager A-free-subtree Decline rule
/// (the Corollary-47 decay mechanism); disabling it is the ablation of
/// bench_ablation — outputs stay valid but the node-average of the
/// Decline mass degrades from O(1) to Theta(depth).
[[nodiscard]] FastDecompPlan run_fast_decomposition(
    const Tree& tree, const std::vector<char>& participates,
    const std::vector<char>& is_a, int d, bool early_resolution = true);

/// Reusable buffers of `prune_component`, indexed by member position.
/// They grow on demand; `reserve` sizes them once for a whole plan so
/// later calls allocate nothing.
struct PruneScratch {
  std::vector<int> parent;       ///< member -> parent member
  std::vector<int> child_begin;  ///< CSR offsets of the member children
  std::vector<int> children;     ///< children, ascending per member
  std::vector<std::int64_t> subtree;
  std::vector<int> queue;
  std::vector<int> kids;         ///< one member's children, sorted
  std::vector<char> keep;

  void reserve(const Tree& tree, const FastDecompPlan& plan);
  /// Makes room for a component of `members` nodes.
  void grow(std::size_t members);
};

/// Lemma 52: prunes C(root) to C'(root). Every kept Copy node may turn at
/// most (d - #already-Declining-neighbors) of its heaviest child subtrees
/// into Decline (ties: lower member position first); returns keep[i] for
/// components[comp], a view into `scratch` valid until its next use.
/// `is_declined(u)` must report whether u's final output is Decline.
[[nodiscard]] std::span<const char> prune_component(
    const Tree& tree, const FastDecompPlan& plan, int comp, int d,
    const std::vector<char>& is_declined, PruneScratch& scratch);

}  // namespace lcl::algo

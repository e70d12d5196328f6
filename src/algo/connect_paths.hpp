// Shared Connect-path marking: the nodes lying on a path of length
// <= bound between two input-A nodes (used by Algorithm A's Connect rule
// and the distance-5 pre-step of the adapted fast decomposition).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/tree.hpp"

namespace lcl::algo {

/// Returns a per-node mask (size tree.size()) that is 1 exactly at the
/// participating nodes v lying on the unique tree path (endpoints
/// included) between two distinct participating input-A nodes at
/// distance <= bound, the path running through participants only.
/// Non-participating A-nodes are ignored; bound must be >= 0.
///
/// O(n) time and memory: a nearest-A DP over the participant forest (a
/// bottom-up pass for the nearest A below each node, a top-down pass for
/// the nearest A through its parent), independent of the number of
/// A-nodes and of the bound.
[[nodiscard]] std::vector<char> mark_connect_paths(
    const graph::Tree& tree, const std::vector<char>& participates,
    const std::vector<char>& is_a, std::int64_t bound);

}  // namespace lcl::algo

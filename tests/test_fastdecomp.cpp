// The adapted fast decomposition (Section 8.1): d-free validity of the
// planned outputs, the Corollary-47 geometric decay, and the Lemma-52
// pruning bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>

#include "algo/connect_paths.hpp"
#include "algo/fast_decomp.hpp"
#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

// Frozen reference: the planner and the pruning as they were before the
// worklist rewrite — full O(n * Delta) scans per iteration, a
// vector-of-vectors kid relation, a deque per propagation, and an
// n-sized member index per pruned component. The oracle tests below pin
// the production code to it field by field.
namespace reference {

using algo::FastDecompPlan;
using algo::FdaRole;
using graph::NodeId;
using graph::Tree;


constexpr int kEll = 3;            // relaxed compress threshold
constexpr int kRoundsPerIter = 3;  // engine rounds charged per iteration

/// Working state of the planner.
struct Planner {
  const Tree& tree;
  const std::vector<char>& participates;
  const std::vector<char>& is_a;
  int d;

  std::vector<char> alive;
  std::vector<char> assigned;
  std::vector<std::int64_t> layer_key;  // 2i rake / 2i+1 compress
  std::vector<std::vector<NodeId>> kids;  // oriented u -> kids[u]
  // Deferred orientation: when `pending_parent[c]` is assigned, the edge
  // pending_parent[c] -> c materializes (compress-endpoint boundary).
  std::vector<NodeId> pending_child;  // per node: child to adopt on assign
  // Early-resolution bookkeeping (the Corollary-47 decay mechanism; see
  // DESIGN.md Substitution 3): whether a node's oriented subtree contains
  // an input-A node, and how many early Declines each alive parent has
  // granted to its raked children (at most d-2, the Lemma-52 budget).
  std::vector<char> has_a_below;
  std::vector<int> early_declines;

  FastDecompPlan plan;

  explicit Planner(const Tree& t, const std::vector<char>& part,
                   const std::vector<char>& a, int d_param)
      : tree(t), participates(part), is_a(a), d(d_param) {
    const std::size_t n = static_cast<std::size_t>(t.size());
    alive.assign(n, 0);
    assigned.assign(n, 0);
    layer_key.assign(n, -1);
    kids.resize(n);
    pending_child.assign(n, graph::kInvalidNode);
    has_a_below.assign(n, 0);
    early_declines.assign(n, 0);
    plan.role.assign(n, FdaRole::kInactive);
    plan.ready_round.assign(n, 0);
    plan.comp_root.assign(n, graph::kInvalidNode);
    plan.comp_depth.assign(n, -1);
    plan.flood_parent_port.assign(n, -1);
  }

  [[nodiscard]] bool in(NodeId v) const {
    return participates[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] bool has_output(NodeId v) const {
    const FdaRole r = plan.role[static_cast<std::size_t>(v)];
    return r != FdaRole::kInactive || !in(v);
  }

  /// Decline propagation: BFS over `kids` starting below each seed,
  /// skipping nodes that already carry an output (which also blocks the
  /// subtree behind them — an existing Copy component is sealed).
  void propagate_decline(const std::vector<NodeId>& seeds,
                         std::int64_t base_round) {
    std::deque<std::pair<NodeId, std::int64_t>> q;
    for (NodeId s : seeds) {
      if (!has_output(s)) {
        plan.role[static_cast<std::size_t>(s)] = FdaRole::kDecline;
        plan.ready_round[static_cast<std::size_t>(s)] = base_round;
      }
      if (plan.role[static_cast<std::size_t>(s)] == FdaRole::kDecline) {
        q.emplace_back(s, base_round);
      }
    }
    while (!q.empty()) {
      auto [u, r] = q.front();
      q.pop_front();
      for (NodeId w : kids[static_cast<std::size_t>(u)]) {
        if (has_output(w)) continue;
        plan.role[static_cast<std::size_t>(w)] = FdaRole::kDecline;
        plan.ready_round[static_cast<std::size_t>(w)] = r + 1;
        q.emplace_back(w, r + 1);
      }
    }
  }

  /// Copy propagation from a freshly assigned input-A node.
  void propagate_copy(NodeId root, std::int64_t base_round) {
    if (has_output(root)) {
      throw std::logic_error("fda: input-A node already has an output");
    }
    plan.role[static_cast<std::size_t>(root)] = FdaRole::kCopyRoot;
    plan.comp_root[static_cast<std::size_t>(root)] = root;
    plan.comp_depth[static_cast<std::size_t>(root)] = 0;
    std::vector<NodeId> members{root};
    std::deque<NodeId> q{root};
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (NodeId w : kids[static_cast<std::size_t>(u)]) {
        if (has_output(w)) continue;
        plan.role[static_cast<std::size_t>(w)] = FdaRole::kCopyMember;
        plan.comp_root[static_cast<std::size_t>(w)] = root;
        plan.comp_depth[static_cast<std::size_t>(w)] =
            plan.comp_depth[static_cast<std::size_t>(u)] + 1;
        const auto nb = tree.neighbors(w);
        for (std::size_t p = 0; p < nb.size(); ++p) {
          if (nb[p] == u) {
            plan.flood_parent_port[static_cast<std::size_t>(w)] =
                static_cast<int>(p);
          }
        }
        members.push_back(w);
        q.push_back(w);
      }
    }
    int max_depth = 0;
    for (NodeId m : members) {
      max_depth =
          std::max(max_depth, plan.comp_depth[static_cast<std::size_t>(m)]);
    }
    // rho_dec: assignment + collect the component topology (2 * depth).
    plan.ready_round[static_cast<std::size_t>(root)] =
        base_round + 2 * max_depth + 1;
    plan.comp_of_root.resize(static_cast<std::size_t>(tree.size()), -1);
    plan.comp_of_root[static_cast<std::size_t>(root)] =
        static_cast<int>(plan.components.size());
    plan.components.push_back(std::move(members));
  }

  /// Marks `b` as a border node: it declines immediately (it is never an
  /// input-A node thanks to the distance-5 Connect pre-step).
  void make_border(NodeId b, std::int64_t round) {
    if (is_a[static_cast<std::size_t>(b)]) {
      throw std::logic_error("fda: input-A node bordered (pre-step broken)");
    }
    if (!has_output(b)) {
      plan.role[static_cast<std::size_t>(b)] = FdaRole::kDecline;
      plan.ready_round[static_cast<std::size_t>(b)] = round;
    }
    // Its subtree propagation happens when it gets assigned (rule 2),
    // which `on_assigned` triggers because its role is already kDecline.
  }

  /// Adopts a deferred compress-boundary child and refreshes the
  /// A-containment flag; call right after `v` is given a layer.
  void adopt_and_flag(NodeId v) {
    if (pending_child[static_cast<std::size_t>(v)] !=
        graph::kInvalidNode) {
      kids[static_cast<std::size_t>(v)].push_back(
          pending_child[static_cast<std::size_t>(v)]);
      pending_child[static_cast<std::size_t>(v)] = graph::kInvalidNode;
    }
    char flag = is_a[static_cast<std::size_t>(v)] ? 1 : 0;
    for (NodeId w : kids[static_cast<std::size_t>(v)]) {
      if (has_a_below[static_cast<std::size_t>(w)]) flag = 1;
    }
    has_a_below[static_cast<std::size_t>(v)] = flag;
  }

  /// Rule 2: bordered nodes propagate their Decline once assigned.
  void on_assigned(NodeId v, std::int64_t round) {
    if (plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      propagate_decline({v}, round);
    }
  }

  /// Early resolution (eager Lemma-52 pruning): a freshly raked node
  /// whose subtree is A-free may Decline immediately, provided its still-
  /// alive parent has granted fewer than d-2 such Declines. This yields
  /// the geometric decay of Corollary 47 with ratio ~ (Delta-d+1)/
  /// (Delta-1) while preserving every Copy node's Decline budget.
  void try_early_decline(NodeId v, NodeId parent, std::int64_t round) {
    if (has_output(v) || is_a[static_cast<std::size_t>(v)] ||
        has_a_below[static_cast<std::size_t>(v)]) {
      return;
    }
    if (parent == graph::kInvalidNode ||
        !alive[static_cast<std::size_t>(parent)] ||
        assigned[static_cast<std::size_t>(parent)]) {
      return;
    }
    if (early_declines[static_cast<std::size_t>(parent)] >= d - 2) return;
    ++early_declines[static_cast<std::size_t>(parent)];
    propagate_decline({v}, round);
  }
};

FastDecompPlan run_fast_decomposition(const Tree& tree,
                                      const std::vector<char>& participates,
                                      const std::vector<char>& is_a,
                                      int d, bool early_resolution) {
  if (d < 3) throw std::invalid_argument("fda: d >= 3 (Theorem 5)");
  const NodeId n = tree.size();
  Planner pl(tree, participates, is_a, d);
  pl.plan.comp_of_root.assign(static_cast<std::size_t>(n), -1);

  // --- Pre-step: Connect paths between input-A nodes within distance 5.
  constexpr std::int64_t kBound = 5;
  const std::vector<char> connect =
      algo::mark_connect_paths(tree, participates, is_a, kBound);
  for (NodeId v = 0; v < n; ++v) {
    if (!connect[static_cast<std::size_t>(v)]) continue;
    pl.plan.role[static_cast<std::size_t>(v)] = FdaRole::kConnect;
    pl.plan.ready_round[static_cast<std::size_t>(v)] = kBound + 1;
  }

  // Alive = participants that did not output Connect.
  std::int64_t alive_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (pl.in(v) &&
        pl.plan.role[static_cast<std::size_t>(v)] != FdaRole::kConnect) {
      pl.alive[static_cast<std::size_t>(v)] = 1;
      ++alive_count;
    }
  }
  auto alive_degree = [&](NodeId v) {
    int deg = 0;
    for (NodeId u : tree.neighbors(v)) {
      if (pl.alive[static_cast<std::size_t>(u)]) ++deg;
    }
    return deg;
  };

  // Per-iteration scratch, allocated once. Each flag is set only on the
  // nodes of its list and cleared through that list, so an iteration
  // costs no O(n) allocation or fill.
  std::vector<NodeId> rake_set;
  std::vector<char> in_rake(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> chain_nodes;  // alive degree-2 nodes
  std::vector<char> is_chain(static_cast<std::size_t>(n), 0);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);

  int iter = 0;
  while (alive_count > 0) {
    ++iter;
    const std::int64_t round = kRoundsPerIter * iter;

    // ---- Rake step.
    for (NodeId v : rake_set) in_rake[static_cast<std::size_t>(v)] = 0;
    rake_set.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (pl.alive[static_cast<std::size_t>(v)] && alive_degree(v) <= 1) {
        rake_set.push_back(v);
        in_rake[static_cast<std::size_t>(v)] = 1;
      }
    }
    for (NodeId v : rake_set) {
      // Parent = the alive neighbor that stays (or the larger-id member
      // of a simultaneously raked pair).
      NodeId parent = graph::kInvalidNode;
      bool parent_raked_now = false;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.alive[static_cast<std::size_t>(u)]) continue;
        if (!in_rake[static_cast<std::size_t>(u)] ||
            tree.local_id(u) > tree.local_id(v)) {
          parent = u;
          parent_raked_now = in_rake[static_cast<std::size_t>(u)] != 0;
        }
      }
      pl.assigned[static_cast<std::size_t>(v)] = 1;
      pl.layer_key[static_cast<std::size_t>(v)] = 2 * iter;
      if (parent != graph::kInvalidNode) {
        pl.kids[static_cast<std::size_t>(parent)].push_back(v);
      }
      pl.adopt_and_flag(v);
      // Adapted rule 1, rake case.
      if (is_a[static_cast<std::size_t>(v)] && !pl.has_output(v)) {
        if (parent != graph::kInvalidNode &&
            !pl.assigned[static_cast<std::size_t>(parent)]) {
          pl.make_border(parent, round);
        }
        pl.propagate_copy(v, round);
      } else if (early_resolution && !parent_raked_now) {
        pl.try_early_decline(v, parent, round);
      }
      pl.on_assigned(v, round);
    }
    for (NodeId v : rake_set) {
      pl.alive[static_cast<std::size_t>(v)] = 0;
    }
    alive_count -= static_cast<std::int64_t>(rake_set.size());

    // ---- Relaxed compress step (ell = 3).
    for (NodeId v : chain_nodes) {
      is_chain[static_cast<std::size_t>(v)] = 0;
      visited[static_cast<std::size_t>(v)] = 0;
    }
    chain_nodes.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (pl.alive[static_cast<std::size_t>(v)] && alive_degree(v) == 2) {
        is_chain[static_cast<std::size_t>(v)] = 1;
        chain_nodes.push_back(v);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!is_chain[static_cast<std::size_t>(v)] ||
          visited[static_cast<std::size_t>(v)]) {
        continue;
      }
      int chain_neighbors = 0;
      for (NodeId u : tree.neighbors(v)) {
        if (pl.alive[static_cast<std::size_t>(u)] &&
            is_chain[static_cast<std::size_t>(u)]) {
          ++chain_neighbors;
        }
      }
      if (chain_neighbors == 2) continue;  // interior; find an end first
      // Walk the maximal chain from this end.
      std::vector<NodeId> chain;
      NodeId prev = graph::kInvalidNode;
      NodeId cur = v;
      while (cur != graph::kInvalidNode) {
        visited[static_cast<std::size_t>(cur)] = 1;
        chain.push_back(cur);
        NodeId next = graph::kInvalidNode;
        for (NodeId u : tree.neighbors(cur)) {
          if (u != prev && pl.alive[static_cast<std::size_t>(u)] &&
              is_chain[static_cast<std::size_t>(u)] &&
              !visited[static_cast<std::size_t>(u)]) {
            next = u;
          }
        }
        prev = cur;
        cur = next;
      }
      const std::int64_t len = static_cast<std::int64_t>(chain.size());
      if (len < kEll) continue;  // stays alive; rakes away later

      // Assign + orient. Inward orientation: the first min(ell, (len-1)/2)
      // edges from each end point toward the interior; deeper edges stay
      // unoriented (Observation 46.4).
      for (NodeId c : chain) {
        pl.assigned[static_cast<std::size_t>(c)] = 1;
        pl.layer_key[static_cast<std::size_t>(c)] = 2 * iter + 1;
      }
      const std::int64_t inward =
          std::min<std::int64_t>(kEll, (len - 1) / 2);
      for (std::int64_t e = 0; e < inward; ++e) {
        pl.kids[static_cast<std::size_t>(chain[static_cast<std::size_t>(e)])]
            .push_back(chain[static_cast<std::size_t>(e + 1)]);
        pl.kids[static_cast<std::size_t>(
                    chain[static_cast<std::size_t>(len - 1 - e)])]
            .push_back(chain[static_cast<std::size_t>(len - 2 - e)]);
      }
      // Adopt deferred children and settle A-containment flags; the
      // inward chain-kid relation has depth <= ell, so ell+1 passes
      // converge.
      for (int pass = 0; pass <= kEll; ++pass) {
        for (NodeId c : chain) pl.adopt_and_flag(c);
      }
      // Boundary edges: the outer alive neighbor of each chain end adopts
      // the endpoint as a deferred child once it is itself assigned.
      for (int side = 0; side < 2; ++side) {
        const NodeId end = side == 0 ? chain.front() : chain.back();
        for (NodeId h : tree.neighbors(end)) {
          if (pl.alive[static_cast<std::size_t>(h)] &&
              !is_chain[static_cast<std::size_t>(h)]) {
            pl.pending_child[static_cast<std::size_t>(h)] = end;
          }
        }
      }

      // Adapted rule 1, compress case: input-A chain nodes first.
      for (std::int64_t i = 0; i < len; ++i) {
        const NodeId c = chain[static_cast<std::size_t>(i)];
        if (!is_a[static_cast<std::size_t>(c)] || pl.has_output(c)) continue;
        // Border the <= 2 same-chain / still-alive neighbors.
        for (NodeId u : tree.neighbors(c)) {
          const bool same_chain =
              is_chain[static_cast<std::size_t>(u)] &&
              pl.layer_key[static_cast<std::size_t>(u)] == 2 * iter + 1;
          const bool unassigned =
              pl.alive[static_cast<std::size_t>(u)] &&
              !pl.assigned[static_cast<std::size_t>(u)];
          if (same_chain || unassigned) pl.make_border(u, round);
        }
        pl.propagate_copy(c, round);
      }
      // Rule 4: nodes at distance >= ell from both chain ends decline.
      std::vector<NodeId> mid;
      for (std::int64_t i = kEll; i < len - kEll; ++i) {
        mid.push_back(chain[static_cast<std::size_t>(i)]);
      }
      pl.propagate_decline(mid, round);
      // Rule 2 for freshly assigned bordered chain nodes.
      for (NodeId c : chain) pl.on_assigned(c, round);

      for (NodeId c : chain) pl.alive[static_cast<std::size_t>(c)] = 0;
      alive_count -= len;
    }

    // ---- Rule 3: local maxima among assigned, output-free nodes.
    std::vector<NodeId> maxima;
    for (NodeId v = 0; v < n; ++v) {
      if (!pl.in(v) || !pl.assigned[static_cast<std::size_t>(v)] ||
          pl.has_output(v)) {
        continue;
      }
      bool is_max = true;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.in(u)) continue;
        if (pl.plan.role[static_cast<std::size_t>(u)] == FdaRole::kConnect) {
          continue;
        }
        if (!pl.assigned[static_cast<std::size_t>(u)] ||
            pl.layer_key[static_cast<std::size_t>(u)] >=
                pl.layer_key[static_cast<std::size_t>(v)]) {
          is_max = false;
          break;
        }
      }
      if (is_max) maxima.push_back(v);
    }
    pl.propagate_decline(maxima, round);

    if (iter > 4 * n + 8) {
      throw std::logic_error("fda: failed to converge");
    }
    std::int64_t unfinished = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (pl.in(v) && !pl.has_output(v)) ++unfinished;
    }
    pl.plan.unfinished_after_iteration.push_back(unfinished);
  }

  // ---- Cleanup: everything is assigned; resolve leftovers by repeated
  // local-maxima passes, then a final forced Decline (nodes isolated from
  // any oriented path, e.g. short-chain middles).
  const std::int64_t final_round = kRoundsPerIter * (iter + 1);
  for (;;) {
    std::vector<NodeId> maxima;
    for (NodeId v = 0; v < n; ++v) {
      if (!pl.in(v) || pl.has_output(v)) continue;
      bool is_max = true;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.in(u)) continue;
        if (pl.plan.role[static_cast<std::size_t>(u)] == FdaRole::kConnect) {
          continue;
        }
        if (pl.layer_key[static_cast<std::size_t>(u)] >=
            pl.layer_key[static_cast<std::size_t>(v)]) {
          is_max = false;
          break;
        }
      }
      if (is_max) maxima.push_back(v);
    }
    if (maxima.empty()) break;
    pl.propagate_decline(maxima, final_round);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (pl.in(v) && !pl.has_output(v)) {
      pl.plan.role[static_cast<std::size_t>(v)] = FdaRole::kDecline;
      pl.plan.ready_round[static_cast<std::size_t>(v)] = final_round + 1;
    }
  }

  pl.plan.iterations = iter;
  return pl.plan;
}

std::vector<char> prune_component(const Tree& tree,
                                  const FastDecompPlan& plan, int comp,
                                  int d,
                                  const std::vector<char>& is_declined) {
  const auto& members = plan.components[static_cast<std::size_t>(comp)];
  const std::size_t m = members.size();
  std::vector<std::int64_t> member_idx(
      static_cast<std::size_t>(tree.size()), -1);
  for (std::size_t i = 0; i < m; ++i) {
    member_idx[static_cast<std::size_t>(members[i])] =
        static_cast<std::int64_t>(i);
  }
  // Children within the component (parent = flood_parent_port target).
  std::vector<std::vector<std::size_t>> children(m);
  for (std::size_t i = 1; i < m; ++i) {
    const NodeId v = members[i];
    const int pp = plan.flood_parent_port[static_cast<std::size_t>(v)];
    const NodeId parent =
        tree.neighbors(v)[static_cast<std::size_t>(pp)];
    children[static_cast<std::size_t>(
                 member_idx[static_cast<std::size_t>(parent)])]
        .push_back(i);
  }
  // Subtree sizes (members are in BFS order: children come later).
  std::vector<std::int64_t> subtree(m, 1);
  for (std::size_t i = m; i-- > 1;) {
    const NodeId v = members[i];
    const int pp = plan.flood_parent_port[static_cast<std::size_t>(v)];
    const NodeId parent = tree.neighbors(v)[static_cast<std::size_t>(pp)];
    subtree[static_cast<std::size_t>(
        member_idx[static_cast<std::size_t>(parent)])] += subtree[i];
  }

  std::vector<char> keep(m, 0);
  keep[0] = 1;  // the input-A root always stays Copy
  std::deque<std::size_t> q{0};
  while (!q.empty()) {
    const std::size_t i = q.front();
    q.pop_front();
    const NodeId v = members[i];
    // How many neighbors already decline (outside the component or
    // previously pruned)?
    int declined_neighbors = 0;
    for (NodeId u : tree.neighbors(v)) {
      if (member_idx[static_cast<std::size_t>(u)] < 0 &&
          is_declined[static_cast<std::size_t>(u)]) {
        ++declined_neighbors;
      }
    }
    auto kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      return subtree[a] > subtree[b];
    });
    const int can_prune = std::max(0, d - declined_neighbors);
    const std::size_t pruned =
        std::min<std::size_t>(static_cast<std::size_t>(can_prune),
                              kids.size());
    for (std::size_t c = pruned; c < kids.size(); ++c) {
      keep[kids[c]] = 1;
      q.push_back(kids[c]);
    }
    // Heaviest `pruned` subtrees stay keep = 0 (become Decline).
  }
  return keep;
}

}  // namespace reference


using algo::FastDecompPlan;
using algo::FdaRole;
using graph::NodeId;
using graph::Tree;
using problems::WeightOut;

/// Projects a plan (with every component fully kept) to d-free outputs.
std::vector<int> plan_outputs(const FastDecompPlan& plan, NodeId n) {
  std::vector<int> out(static_cast<std::size_t>(n), -1);
  for (NodeId v = 0; v < n; ++v) {
    switch (plan.role[static_cast<std::size_t>(v)]) {
      case FdaRole::kInactive:
        break;
      case FdaRole::kConnect:
        out[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kConnect);
        break;
      case FdaRole::kDecline:
        out[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kDecline);
        break;
      case FdaRole::kCopyRoot:
      case FdaRole::kCopyMember:
        out[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kCopy);
        break;
    }
  }
  return out;
}

struct Instance {
  Tree tree;
  std::vector<char> part;
  std::vector<char> is_a;
};

Instance balanced_instance(NodeId w, int delta) {
  Instance inst;
  inst.tree = graph::make_balanced_weight_tree(w, delta);
  inst.part.assign(static_cast<std::size_t>(w), 1);
  inst.is_a.assign(static_cast<std::size_t>(w), 0);
  inst.is_a[0] = 1;
  inst.tree.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  for (NodeId v = 1; v < w; ++v) {
    inst.tree.set_input(v, static_cast<int>(problems::DFreeInput::kW));
  }
  return inst;
}

TEST(FastDecomp, ValidOnBalancedWeightTree) {
  for (int d : {3, 4}) {
    auto inst = balanced_instance(2000, d + 4);
    const auto plan = algo::run_fast_decomposition(inst.tree, inst.part,
                                                   inst.is_a, d);
    const auto out = plan_outputs(plan, inst.tree.size());
    test::assert_valid(problems::check_dfree_weight(inst.tree, d, out));
    // Exactly one Copy component rooted at the A node.
    EXPECT_EQ(plan.components.size(), 1u);
    EXPECT_EQ(plan.role[0], FdaRole::kCopyRoot);
  }
}

TEST(FastDecomp, ValidOnPathsAndCaterpillars) {
  // Long paths exercise the compress machinery.
  for (NodeId n : {50, 500}) {
    Tree t = graph::make_path(n);
    std::vector<char> part(static_cast<std::size_t>(n), 1);
    std::vector<char> is_a(static_cast<std::size_t>(n), 0);
    is_a[0] = 1;
    for (NodeId v = 0; v < n; ++v) {
      t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                          ? problems::DFreeInput::kA
                                          : problems::DFreeInput::kW));
    }
    const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
    const auto out = plan_outputs(plan, n);
    test::assert_valid(problems::check_dfree_weight(t, 3, out));
  }
  Tree cat = graph::make_caterpillar(100, 2);
  const NodeId n = cat.size();
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[static_cast<std::size_t>(n - 1)] = 1;
  for (NodeId v = 0; v < n; ++v) {
    cat.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                          ? problems::DFreeInput::kA
                                          : problems::DFreeInput::kW));
  }
  const auto plan = algo::run_fast_decomposition(cat, part, is_a, 3);
  test::assert_valid(
      problems::check_dfree_weight(cat, 3, plan_outputs(plan, n)));
}

TEST(FastDecomp, ValidOnRandomTrees) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Tree t = graph::make_random_tree(1500, 6, seed);
    const NodeId n = t.size();
    std::vector<char> part(static_cast<std::size_t>(n), 1);
    std::vector<char> is_a(static_cast<std::size_t>(n), 0);
    is_a[0] = 1;
    is_a[static_cast<std::size_t>(n / 3)] = 1;
    is_a[static_cast<std::size_t>(2 * n / 3)] = 1;
    for (NodeId v = 0; v < n; ++v) {
      t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                          ? problems::DFreeInput::kA
                                          : problems::DFreeInput::kW));
    }
    const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
    const auto out = plan_outputs(plan, n);
    const auto check = problems::check_dfree_weight(t, 3, out);
    ASSERT_TRUE(check.ok) << check.reason << " (seed " << seed << ")";
  }
}

TEST(FastDecomp, GeometricDecay) {
  // Corollary 47: unfinished nodes decay geometrically with iterations.
  Tree t = graph::make_random_tree(20000, 4, 5);
  const NodeId n = t.size();
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[0] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
  const auto& decay = plan.unfinished_after_iteration;
  ASSERT_GE(decay.size(), 3u);
  // Sum of unfinished counts across iterations is O(n): this is exactly
  // the O(1) node-averaged charge of Lemma 56.
  std::int64_t total = 0;
  for (std::int64_t c : decay) total += c;
  EXPECT_LT(total, 8 * static_cast<std::int64_t>(n));
  // And the tail is small: after 3/4 of iterations, < 10% remains.
  const std::size_t i34 = decay.size() * 3 / 4;
  EXPECT_LT(decay[i34], n / 10);
}

TEST(FastDecomp, PruningBoundLemma52) {
  // |C'(v)| <= 2 |C(v)|^{x'} on balanced weight trees.
  const int delta = 7, d = 3;
  auto inst = balanced_instance(5000, delta);
  const auto plan = algo::run_fast_decomposition(inst.tree, inst.part,
                                                 inst.is_a, d);
  ASSERT_EQ(plan.components.size(), 1u);
  std::vector<char> declined(static_cast<std::size_t>(inst.tree.size()),
                             0);
  for (NodeId v = 0; v < inst.tree.size(); ++v) {
    if (plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      declined[static_cast<std::size_t>(v)] = 1;
    }
  }
  algo::PruneScratch scratch;
  const auto keep =
      algo::prune_component(inst.tree, plan, 0, d, declined, scratch);
  std::int64_t kept = 0;
  for (char k : keep) kept += (k != 0);
  const double xp = core::efficiency_x_prime(delta, d);
  const double csize =
      static_cast<double>(plan.components[0].size());
  EXPECT_LE(static_cast<double>(kept), 2.0 * std::pow(csize, xp) + 1.0);
  EXPECT_GE(kept, 1);  // the root always stays

  // Pruned outputs remain d-free valid.
  auto out = plan_outputs(plan, inst.tree.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (!keep[i]) {
      out[static_cast<std::size_t>(plan.components[0][i])] =
          static_cast<int>(WeightOut::kDecline);
    }
  }
  test::assert_valid(problems::check_dfree_weight(inst.tree, d, out));
}

TEST(FastDecomp, CloseANodesConnect) {
  // Two A nodes 3 apart on a path: the pre-step connects them.
  const NodeId n = 40;
  Tree t = graph::make_path(n);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[10] = is_a[13] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
  for (NodeId v = 10; v <= 13; ++v) {
    EXPECT_EQ(plan.role[static_cast<std::size_t>(v)], FdaRole::kConnect);
  }
  test::assert_valid(
      problems::check_dfree_weight(t, 3, plan_outputs(plan, n)));
}

// ---------------------------------------------------------------------------
// Oracle: the worklist planner and the O(|C|) pruning against the frozen
// reference above.
// ---------------------------------------------------------------------------

struct OracleInstance {
  std::string label;
  Tree tree;
  std::vector<char> part;
  std::vector<char> is_a;
};

/// Every field of `got` equals the reference's; the reference has no
/// comp_index, so the expected one is read off its member lists.
void expect_same_plan(const FastDecompPlan& got, const FastDecompPlan& want,
                      NodeId n) {
  EXPECT_EQ(got.role, want.role);
  EXPECT_EQ(got.ready_round, want.ready_round);
  EXPECT_EQ(got.comp_root, want.comp_root);
  EXPECT_EQ(got.comp_depth, want.comp_depth);
  EXPECT_EQ(got.flood_parent_port, want.flood_parent_port);
  EXPECT_EQ(got.components, want.components);
  EXPECT_EQ(got.comp_of_root, want.comp_of_root);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.unfinished_after_iteration, want.unfinished_after_iteration);
  std::vector<int> want_index(static_cast<std::size_t>(n), -1);
  for (const auto& members : want.components) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      want_index[static_cast<std::size_t>(members[i])] = static_cast<int>(i);
    }
  }
  EXPECT_EQ(got.comp_index, want_index);
}

/// Prunes every component in index order with the Pi^{3.5} coupling —
/// each pruning's Declines feed the later ones — and compares every keep
/// vector with the reference's. `reserve` picks a pre-sized scratch or
/// one that grows on demand.
void expect_same_pruning(const Tree& t, const FastDecompPlan& plan, int d,
                         bool reserve) {
  std::vector<char> declined(static_cast<std::size_t>(t.size()), 0);
  for (NodeId v = 0; v < t.size(); ++v) {
    declined[static_cast<std::size_t>(v)] =
        plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline ? 1 : 0;
  }
  algo::PruneScratch scratch;
  if (reserve) scratch.reserve(t, plan);
  for (int comp = 0; comp < static_cast<int>(plan.components.size());
       ++comp) {
    const std::vector<char> want =
        reference::prune_component(t, plan, comp, d, declined);
    const auto got =
        algo::prune_component(t, plan, comp, d, declined, scratch);
    ASSERT_EQ(std::vector<char>(got.begin(), got.end()), want)
        << "component " << comp;
    const auto& members = plan.components[static_cast<std::size_t>(comp)];
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!want[i]) declined[static_cast<std::size_t>(members[i])] = 1;
    }
  }
}

void expect_matches_reference(const OracleInstance& inst, int d) {
  for (const bool early : {true, false}) {
    SCOPED_TRACE(inst.label + " d=" + std::to_string(d) +
                 " early=" + std::to_string(early));
    const FastDecompPlan want = reference::run_fast_decomposition(
        inst.tree, inst.part, inst.is_a, d, early);
    const FastDecompPlan got = algo::run_fast_decomposition(
        inst.tree, inst.part, inst.is_a, d, early);
    expect_same_plan(got, want, inst.tree.size());
    if (::testing::Test::HasFailure()) return;
    expect_same_pruning(inst.tree, got, d, early);
  }
}

/// A family instance under the two markings the solvers use: the
/// Definition-22 active/weight split (the weight subgraph participates)
/// and the Section-7 d-free marking (everything participates; component
/// roots plus a seeded sprinkle are input-A).
std::vector<OracleInstance> family_instances(const std::string& family,
                                             NodeId n, std::uint64_t seed,
                                             int delta) {
  std::vector<OracleInstance> out;
  const std::string label = family + " n=" + std::to_string(n) +
                            " seed=" + std::to_string(seed);
  {
    Tree t = graph::make_family_instance(family, n, seed, delta);
    algo::prepare_instance(t, algo::kNeedShuffledIds |
                                  algo::kNeedWeightInputs, seed);
    algo::WeightSubgraph sub = algo::weight_subgraph(t);
    out.push_back({label + " weight", std::move(t),
                   std::move(sub.participates), std::move(sub.is_a)});
  }
  {
    Tree t = graph::make_family_instance(family, n, seed, delta);
    algo::prepare_instance(t, algo::kNeedShuffledIds |
                                  algo::kNeedDFreeInputs, seed);
    const auto size = static_cast<std::size_t>(t.size());
    std::vector<char> part(size, 1);
    std::vector<char> is_a(size, 0);
    for (NodeId v = 0; v < t.size(); ++v) {
      is_a[static_cast<std::size_t>(v)] =
          t.input(v) == static_cast<int>(problems::DFreeInput::kA) ? 1 : 0;
    }
    out.push_back({label + " dfree", std::move(t), std::move(part),
                   std::move(is_a)});
  }
  return out;
}

TEST(FastDecompOracle, WorklistPlannerMatchesReferenceOnFamilies) {
  const std::vector<std::string> families = {
      "path", "caterpillar", "spider", "random_attach", "prufer",
      "galton_watson"};
  for (const std::string& family : families) {
    const int delta = graph::find_family(family)->default_delta == 0 ? 0 : 6;
    for (const NodeId n : {1, 2, 3, 7, 60, 500, 3000, 20000}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        if (n == 20000 && seed > 1) continue;
        for (const OracleInstance& inst :
             family_instances(family, n, seed, delta)) {
          for (const int d : {3, 4, 5}) {
            expect_matches_reference(inst, d);
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST(FastDecompOracle, WorklistPlannerMatchesReferenceOnWeightedConstruction) {
  struct Shape {
    int delta;
    int d;
  };
  for (const Shape sh : {Shape{6, 3}, Shape{7, 4}, Shape{9, 5}}) {
    for (const int k : {2, 3}) {
      for (const std::int64_t target : {300, 3000, 20000}) {
        const double xp = core::efficiency_x_prime(sh.delta, sh.d);
        const auto ell = core::lower_bound_lengths(
            core::alpha_profile_logstar(xp, k), 16.0, target);
        auto wc = graph::make_weighted_construction(ell, sh.delta);
        graph::assign_ids(wc.tree, graph::IdScheme::kShuffled,
                          static_cast<std::uint64_t>(target + k));
        algo::WeightSubgraph sub = algo::weight_subgraph(wc.tree);
        const OracleInstance inst{
            "weighted delta=" + std::to_string(sh.delta) +
                " k=" + std::to_string(k) +
                " n=" + std::to_string(wc.tree.size()),
            std::move(wc.tree), std::move(sub.participates),
            std::move(sub.is_a)};
        expect_matches_reference(inst, sh.d);
        if (HasFailure()) return;
      }
    }
  }
}

// Pruning costs O(|C|) per component: every component of a
// million-node weighted construction (tens of thousands of them) is
// pruned here. An O(n) fill per call — the reference's member index —
// would write hundreds of gigabytes and run far past the test timeout.
TEST(FastDecompOracle, PruningIsLinearInTheComponent) {
  const int delta = 6, d = 3, k = 2;
  const auto ell = core::lower_bound_lengths(
      core::alpha_profile_logstar(core::efficiency_x_prime(delta, d), k),
      16.0, 1000000);
  const graph::WeightedInstance wc =
      graph::make_weighted_construction(ell, delta);
  ASSERT_GE(wc.tree.size(), 1000000);
  const algo::WeightSubgraph sub = algo::weight_subgraph(wc.tree);
  const FastDecompPlan plan = algo::run_fast_decomposition(
      wc.tree, sub.participates, sub.is_a, d);
  ASSERT_GE(plan.components.size(), 10000u);

  std::vector<char> declined(static_cast<std::size_t>(wc.tree.size()), 0);
  for (NodeId v = 0; v < wc.tree.size(); ++v) {
    declined[static_cast<std::size_t>(v)] =
        plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline ? 1 : 0;
  }
  algo::PruneScratch scratch;
  scratch.reserve(wc.tree, plan);
  std::size_t members = 0;
  std::size_t kept = 0;
  for (int comp = 0; comp < static_cast<int>(plan.components.size());
       ++comp) {
    const auto keep =
        algo::prune_component(wc.tree, plan, comp, d, declined, scratch);
    ASSERT_EQ(keep[0], 1);  // the root always stays
    members += keep.size();
    kept += static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1));
  }
  EXPECT_LT(kept, members);
}

}  // namespace
}  // namespace lcl

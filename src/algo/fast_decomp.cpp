#include "algo/fast_decomp.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "algo/connect_paths.hpp"
#include "graph/builders.hpp"
#include "problems/levels.hpp"

namespace lcl::algo {

namespace {

constexpr int kEll = 3;            // relaxed compress threshold
constexpr int kRoundsPerIter = 3;  // engine rounds charged per iteration

/// Sorts a worklist; the initial scans already come out ascending.
void sort_ascending(std::vector<NodeId>& nodes) {
  if (!std::is_sorted(nodes.begin(), nodes.end())) {
    std::sort(nodes.begin(), nodes.end());
  }
}

/// Working state of the planner.
struct Planner {
  const Tree& tree;
  const std::vector<char>& participates;
  const std::vector<char>& is_a;
  int d;

  std::vector<char> alive;
  std::vector<int> alive_deg;  // alive neighbors of an alive node
  std::vector<char> assigned;
  std::vector<std::int64_t> layer_key;  // 2i rake / 2i+1 compress
  // Oriented edges u -> kid, one singly linked list per u over a flat
  // pool, in push order. (Not a sibling list: the middle node of a
  // length-3 chain is the kid of both ends.)
  std::vector<std::int32_t> kid_head;
  std::vector<std::int32_t> kid_tail;
  std::vector<std::int32_t> edge_next;
  std::vector<NodeId> edge_kid;
  // Deferred orientation: when h is assigned, the edge
  // h -> pending_child[h] materializes (compress-endpoint boundary).
  std::vector<NodeId> pending_child;  // per node: child to adopt on assign
  // Early-resolution bookkeeping (the Corollary-47 decay mechanism; see
  // DESIGN.md Substitution 3): whether a node's oriented subtree contains
  // an input-A node, and how many early Declines each alive parent has
  // granted to its raked children (at most d-2, the Lemma-52 budget).
  std::vector<char> has_a_below;
  std::vector<int> early_declines;
  // Worklists fed by the removals: alive nodes whose degree dropped to 1
  // (the next rake set) and to 2 (compress candidates, kept while they
  // stay alive with degree 2).
  std::vector<NodeId> rake_cand;
  std::vector<NodeId> chain_cand;
  // Participants without an output (Corollary 47's unfinished count).
  std::int64_t unfinished = 0;
  // The propagations' shared BFS queue.
  std::vector<std::pair<NodeId, std::int64_t>> queue;

  FastDecompPlan plan;

  explicit Planner(const Tree& t, const std::vector<char>& part,
                   const std::vector<char>& a, int d_param)
      : tree(t), participates(part), is_a(a), d(d_param) {
    const std::size_t n = static_cast<std::size_t>(t.size());
    alive.assign(n, 0);
    alive_deg.assign(n, 0);
    assigned.assign(n, 0);
    layer_key.assign(n, -1);
    kid_head.assign(n, -1);
    kid_tail.assign(n, -1);
    edge_kid.reserve(n);
    edge_next.reserve(n);
    pending_child.assign(n, graph::kInvalidNode);
    has_a_below.assign(n, 0);
    early_declines.assign(n, 0);
    plan.role.assign(n, FdaRole::kInactive);
    plan.ready_round.assign(n, 0);
    plan.comp_root.assign(n, graph::kInvalidNode);
    plan.comp_depth.assign(n, -1);
    plan.comp_index.assign(n, -1);
    plan.flood_parent_port.assign(n, -1);
    plan.comp_of_root.assign(n, -1);
  }

  [[nodiscard]] bool in(NodeId v) const {
    return participates[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] bool has_output(NodeId v) const {
    const FdaRole r = plan.role[static_cast<std::size_t>(v)];
    return r != FdaRole::kInactive || !in(v);
  }
  /// Gives an output-free participant its role.
  void set_role(NodeId v, FdaRole role) {
    plan.role[static_cast<std::size_t>(v)] = role;
    --unfinished;
  }

  void add_kid(NodeId u, NodeId kid) {
    const auto e = static_cast<std::int32_t>(edge_kid.size());
    edge_kid.push_back(kid);
    edge_next.push_back(-1);
    std::int32_t& tail = kid_tail[static_cast<std::size_t>(u)];
    (tail < 0 ? kid_head[static_cast<std::size_t>(u)]
              : edge_next[static_cast<std::size_t>(tail)]) = e;
    tail = e;
  }
  template <typename F>
  void for_kids(NodeId u, F&& f) const {
    for (std::int32_t e = kid_head[static_cast<std::size_t>(u)]; e >= 0;
         e = edge_next[static_cast<std::size_t>(e)]) {
      f(edge_kid[static_cast<std::size_t>(e)]);
    }
  }

  /// Removes alive nodes and feeds the worklists with the neighbors
  /// whose alive degree drops to 1 or 2.
  void remove(std::span<const NodeId> nodes) {
    for (NodeId v : nodes) alive[static_cast<std::size_t>(v)] = 0;
    for (NodeId v : nodes) {
      for (NodeId u : tree.neighbors(v)) {
        if (!alive[static_cast<std::size_t>(u)]) continue;
        const int deg = --alive_deg[static_cast<std::size_t>(u)];
        if (deg == 1) rake_cand.push_back(u);
        if (deg == 2) chain_cand.push_back(u);
      }
    }
  }

  /// Decline propagation: BFS over the kids starting below each seed,
  /// skipping nodes that already carry an output (which also blocks the
  /// subtree behind them — an existing Copy component is sealed).
  void seed_decline(NodeId s, std::int64_t base_round) {
    if (!has_output(s)) {
      set_role(s, FdaRole::kDecline);
      plan.ready_round[static_cast<std::size_t>(s)] = base_round;
    }
    if (plan.role[static_cast<std::size_t>(s)] == FdaRole::kDecline) {
      queue.emplace_back(s, base_round);
    }
  }
  void drain_declines() {
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const NodeId u = queue[h].first;
      const std::int64_t r = queue[h].second;
      for_kids(u, [&](NodeId w) {
        if (has_output(w)) return;
        set_role(w, FdaRole::kDecline);
        plan.ready_round[static_cast<std::size_t>(w)] = r + 1;
        queue.emplace_back(w, r + 1);
      });
    }
    queue.clear();
  }
  void propagate_decline(NodeId seed, std::int64_t base_round) {
    seed_decline(seed, base_round);
    drain_declines();
  }
  void propagate_decline(std::span<const NodeId> seeds,
                         std::int64_t base_round) {
    for (NodeId s : seeds) seed_decline(s, base_round);
    drain_declines();
  }

  /// Copy propagation from a freshly assigned input-A node. The member
  /// list is the BFS queue, so it comes out in BFS order.
  void propagate_copy(NodeId root, std::int64_t base_round) {
    if (has_output(root)) {
      throw std::logic_error("fda: input-A node already has an output");
    }
    set_role(root, FdaRole::kCopyRoot);
    plan.comp_root[static_cast<std::size_t>(root)] = root;
    plan.comp_depth[static_cast<std::size_t>(root)] = 0;
    plan.comp_index[static_cast<std::size_t>(root)] = 0;
    std::vector<NodeId> members{root};
    for (std::size_t h = 0; h < members.size(); ++h) {
      const NodeId u = members[h];
      for_kids(u, [&](NodeId w) {
        if (has_output(w)) return;
        const auto wi = static_cast<std::size_t>(w);
        set_role(w, FdaRole::kCopyMember);
        plan.comp_root[wi] = root;
        plan.comp_depth[wi] =
            plan.comp_depth[static_cast<std::size_t>(u)] + 1;
        plan.comp_index[wi] = static_cast<int>(members.size());
        const auto nb = tree.neighbors(w);
        for (std::size_t p = 0; p < nb.size(); ++p) {
          if (nb[p] == u) plan.flood_parent_port[wi] = static_cast<int>(p);
        }
        members.push_back(w);
      });
    }
    // BFS order: the last member is a deepest one.
    const int max_depth =
        plan.comp_depth[static_cast<std::size_t>(members.back())];
    // rho_dec: assignment + collect the component topology (2 * depth).
    plan.ready_round[static_cast<std::size_t>(root)] =
        base_round + 2 * max_depth + 1;
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
      set_role(b, FdaRole::kDecline);
      plan.ready_round[static_cast<std::size_t>(b)] = round;
    }
    // Its subtree propagation happens when it gets assigned (rule 2),
    // which `on_assigned` triggers because its role is already kDecline.
  }

  /// Adopts a deferred compress-boundary child and refreshes the
  /// A-containment flag; call right after `v` is given a layer.
  void adopt_and_flag(NodeId v) {
    NodeId& pending = pending_child[static_cast<std::size_t>(v)];
    if (pending != graph::kInvalidNode) {
      add_kid(v, pending);
      pending = graph::kInvalidNode;
    }
    char flag = is_a[static_cast<std::size_t>(v)] ? 1 : 0;
    for_kids(v, [&](NodeId w) {
      if (has_a_below[static_cast<std::size_t>(w)]) flag = 1;
    });
    has_a_below[static_cast<std::size_t>(v)] = flag;
  }

  /// Rule 2: bordered nodes propagate their Decline once assigned.
  void on_assigned(NodeId v, std::int64_t round) {
    if (plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      propagate_decline(v, round);
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
    propagate_decline(v, round);
  }

  /// Definition 42: v is a local maximum when every participating,
  /// non-Connect neighbor is assigned to a strictly lower layer.
  [[nodiscard]] bool is_local_max(NodeId v) const {
    for (NodeId u : tree.neighbors(v)) {
      if (!in(u)) continue;
      if (plan.role[static_cast<std::size_t>(u)] == FdaRole::kConnect) {
        continue;
      }
      if (!assigned[static_cast<std::size_t>(u)] ||
          layer_key[static_cast<std::size_t>(u)] >=
              layer_key[static_cast<std::size_t>(v)]) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

WeightSubgraph weight_subgraph(const Tree& tree) {
  const auto active = static_cast<int>(graph::WeightInput::kActive);
  const auto n = static_cast<std::size_t>(tree.size());
  WeightSubgraph sub{std::vector<char>(n, 0), std::vector<char>(n, 0)};
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.input(v) == active) continue;
    sub.participates[static_cast<std::size_t>(v)] = 1;
    for (NodeId u : tree.neighbors(v)) {
      if (tree.input(u) == active) sub.is_a[static_cast<std::size_t>(v)] = 1;
    }
  }
  return sub;
}

std::vector<int> active_levels(const Tree& tree, int k) {
  std::vector<char> mask(static_cast<std::size_t>(tree.size()), 0);
  for (NodeId v = 0; v < tree.size(); ++v) {
    mask[static_cast<std::size_t>(v)] =
        tree.input(v) == static_cast<int>(graph::WeightInput::kActive) ? 1
                                                                       : 0;
  }
  return problems::compute_levels_masked(tree, k, mask);
}

FastDecompPlan run_fast_decomposition(const Tree& tree,
                                      const std::vector<char>& participates,
                                      const std::vector<char>& is_a,
                                      int d, bool early_resolution) {
  if (d < 3) throw std::invalid_argument("fda: d >= 3 (Theorem 5)");
  const NodeId n = tree.size();
  Planner pl(tree, participates, is_a, d);

  // --- Pre-step: Connect paths between input-A nodes within distance 5.
  constexpr std::int64_t kBound = 5;
  const std::vector<char> connect =
      mark_connect_paths(tree, participates, is_a, kBound);
  for (NodeId v = 0; v < n; ++v) {
    if (!connect[static_cast<std::size_t>(v)]) continue;
    pl.plan.role[static_cast<std::size_t>(v)] = FdaRole::kConnect;
    pl.plan.ready_round[static_cast<std::size_t>(v)] = kBound + 1;
  }

  // Alive = participants that did not output Connect; seed the worklists
  // with their initial alive degrees.
  std::int64_t alive_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (pl.in(v) &&
        pl.plan.role[static_cast<std::size_t>(v)] != FdaRole::kConnect) {
      pl.alive[static_cast<std::size_t>(v)] = 1;
      ++alive_count;
    }
  }
  pl.unfinished = alive_count;
  for (NodeId v = 0; v < n; ++v) {
    if (!pl.alive[static_cast<std::size_t>(v)]) continue;
    int deg = 0;
    for (NodeId u : tree.neighbors(v)) {
      deg += pl.alive[static_cast<std::size_t>(u)];
    }
    pl.alive_deg[static_cast<std::size_t>(v)] = deg;
    if (deg <= 1) pl.rake_cand.push_back(v);
    if (deg == 2) pl.chain_cand.push_back(v);
  }

  // Per-iteration scratch, allocated once. Each flag is set only on the
  // nodes of its list and cleared through that list, so an iteration
  // costs no O(n) fill. An alive node whose degree dropped to <= 1 was
  // queued exactly once (degrees drop one at a time through 1), and
  // every such node is raked at the next rake step, so `rake_cand`
  // holds exactly the next rake set.
  std::vector<NodeId> rake_set;
  std::vector<char> in_rake(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> chain_nodes;  // alive degree-2 nodes
  std::vector<char> is_chain(static_cast<std::size_t>(n), 0);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> chain;
  std::vector<NodeId> mid;
  // Assigned participants without an output, ascending; `fresh` holds
  // this iteration's newly assigned ones until they are merged in.
  std::vector<NodeId> pending;
  std::vector<NodeId> fresh;
  std::vector<NodeId> merged;
  std::vector<NodeId> maxima;
  auto merge_fresh = [&] {
    const auto done = [&](NodeId v) { return pl.has_output(v); };
    std::erase_if(pending, done);
    std::erase_if(fresh, done);
    sort_ascending(fresh);
    merged.clear();
    std::merge(pending.begin(), pending.end(), fresh.begin(), fresh.end(),
               std::back_inserter(merged));
    pending.swap(merged);
    fresh.clear();
  };

  int iter = 0;
  while (alive_count > 0) {
    ++iter;
    const std::int64_t round = kRoundsPerIter * iter;

    // ---- Rake step.
    rake_set.swap(pl.rake_cand);
    pl.rake_cand.clear();
    sort_ascending(rake_set);
    for (NodeId v : rake_set) in_rake[static_cast<std::size_t>(v)] = 1;
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
      if (parent != graph::kInvalidNode) pl.add_kid(parent, v);
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
      if (!pl.has_output(v)) fresh.push_back(v);
    }
    for (NodeId v : rake_set) in_rake[static_cast<std::size_t>(v)] = 0;
    pl.remove(rake_set);
    alive_count -= static_cast<std::int64_t>(rake_set.size());

    // ---- Relaxed compress step (ell = 3). The candidates still alive
    // with degree 2 are this step's chain nodes, ascending.
    chain_nodes.swap(pl.chain_cand);
    pl.chain_cand.clear();
    std::erase_if(chain_nodes, [&](NodeId v) {
      return !pl.alive[static_cast<std::size_t>(v)] ||
             pl.alive_deg[static_cast<std::size_t>(v)] != 2;
    });
    sort_ascending(chain_nodes);
    for (NodeId v : chain_nodes) is_chain[static_cast<std::size_t>(v)] = 1;
    for (NodeId v : chain_nodes) {
      if (visited[static_cast<std::size_t>(v)]) continue;
      int chain_neighbors = 0;
      for (NodeId u : tree.neighbors(v)) {
        if (pl.alive[static_cast<std::size_t>(u)] &&
            is_chain[static_cast<std::size_t>(u)]) {
          ++chain_neighbors;
        }
      }
      if (chain_neighbors == 2) continue;  // interior; find an end first
      // Walk the maximal chain from this end.
      chain.clear();
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
        pl.add_kid(chain[static_cast<std::size_t>(e)],
                   chain[static_cast<std::size_t>(e + 1)]);
        pl.add_kid(chain[static_cast<std::size_t>(len - 1 - e)],
                   chain[static_cast<std::size_t>(len - 2 - e)]);
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
      mid.clear();
      for (std::int64_t i = kEll; i < len - kEll; ++i) {
        mid.push_back(chain[static_cast<std::size_t>(i)]);
      }
      pl.propagate_decline(mid, round);
      // Rule 2 for freshly assigned bordered chain nodes.
      for (NodeId c : chain) {
        pl.on_assigned(c, round);
        if (!pl.has_output(c)) fresh.push_back(c);
      }

      pl.remove(chain);
      alive_count -= len;
    }
    // Short chains stay alive with degree 2: they remain candidates.
    for (NodeId v : chain_nodes) {
      is_chain[static_cast<std::size_t>(v)] = 0;
      visited[static_cast<std::size_t>(v)] = 0;
      if (pl.alive[static_cast<std::size_t>(v)]) pl.chain_cand.push_back(v);
    }

    // ---- Rule 3: local maxima among assigned, output-free nodes.
    merge_fresh();
    maxima.clear();
    for (NodeId v : pending) {
      if (pl.is_local_max(v)) maxima.push_back(v);
    }
    pl.propagate_decline(maxima, round);

    if (iter > 4 * n + 8) {
      throw std::logic_error("fda: failed to converge");
    }
    pl.plan.unfinished_after_iteration.push_back(pl.unfinished);
  }

  // ---- Cleanup: everything is assigned; resolve leftovers by repeated
  // local-maxima passes, then a final forced Decline (nodes isolated from
  // any oriented path, e.g. short-chain middles).
  const std::int64_t final_round = kRoundsPerIter * (iter + 1);
  for (;;) {
    merge_fresh();
    maxima.clear();
    for (NodeId v : pending) {
      if (pl.is_local_max(v)) maxima.push_back(v);
    }
    if (maxima.empty()) break;
    pl.propagate_decline(maxima, final_round);
  }
  for (NodeId v : pending) {
    pl.plan.role[static_cast<std::size_t>(v)] = FdaRole::kDecline;
    pl.plan.ready_round[static_cast<std::size_t>(v)] = final_round + 1;
  }

  pl.plan.iterations = iter;
  return std::move(pl.plan);
}

void PruneScratch::grow(std::size_t members) {
  if (keep.size() >= members) return;
  parent.resize(members);
  child_begin.resize(members + 1);
  children.resize(members);
  subtree.resize(members);
  queue.resize(members);
  keep.resize(members);
}

void PruneScratch::reserve(const Tree& tree, const FastDecompPlan& plan) {
  for (const auto& members : plan.components) grow(members.size());
  kids.resize(std::max(kids.size(),
                       static_cast<std::size_t>(tree.max_degree())));
}

std::span<const char> prune_component(const Tree& tree,
                                      const FastDecompPlan& plan, int comp,
                                      int d,
                                      const std::vector<char>& is_declined,
                                      PruneScratch& s) {
  const auto& members = plan.components[static_cast<std::size_t>(comp)];
  const std::size_t m = members.size();
  const NodeId root = members[0];
  s.grow(m);
  // Parent (= flood_parent_port target) positions, and the children of
  // each member as a CSR in ascending member position.
  std::fill_n(s.child_begin.begin(), m + 1, 0);
  for (std::size_t i = 1; i < m; ++i) {
    const NodeId v = members[i];
    const int pp = plan.flood_parent_port[static_cast<std::size_t>(v)];
    const NodeId parent = tree.neighbors(v)[static_cast<std::size_t>(pp)];
    const int p = plan.comp_index[static_cast<std::size_t>(parent)];
    s.parent[i] = p;
    ++s.child_begin[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 0; i < m; ++i) s.child_begin[i + 1] += s.child_begin[i];
  std::copy_n(s.child_begin.begin(), m, s.queue.begin());  // fill cursors
  for (std::size_t i = 1; i < m; ++i) {
    s.children[static_cast<std::size_t>(
        s.queue[static_cast<std::size_t>(s.parent[i])]++)] =
        static_cast<int>(i);
  }
  // Subtree sizes (members are in BFS order: children come later).
  std::fill_n(s.subtree.begin(), m, 1);
  for (std::size_t i = m; i-- > 1;) {
    s.subtree[static_cast<std::size_t>(s.parent[i])] += s.subtree[i];
  }

  std::fill_n(s.keep.begin(), m, 0);
  s.keep[0] = 1;  // the input-A root always stays Copy
  s.queue[0] = 0;
  std::size_t head = 0;
  std::size_t tail = 1;
  while (head < tail) {
    const auto i = static_cast<std::size_t>(s.queue[head++]);
    const NodeId v = members[i];
    // How many neighbors already decline (outside the component or
    // previously pruned)?
    int declined_neighbors = 0;
    for (NodeId u : tree.neighbors(v)) {
      if (plan.comp_root[static_cast<std::size_t>(u)] != root &&
          is_declined[static_cast<std::size_t>(u)]) {
        ++declined_neighbors;
      }
    }
    // Heaviest subtrees first; a stable insertion sort keeps equal
    // subtrees in ascending member position.
    const auto kb = static_cast<std::size_t>(s.child_begin[i]);
    const auto count = static_cast<std::size_t>(s.child_begin[i + 1]) - kb;
    if (s.kids.size() < count) s.kids.resize(count);
    for (std::size_t c = 0; c < count; ++c) {
      const int kid = s.children[kb + c];
      std::size_t j = c;
      while (j > 0 && s.subtree[static_cast<std::size_t>(s.kids[j - 1])] <
                          s.subtree[static_cast<std::size_t>(kid)]) {
        s.kids[j] = s.kids[j - 1];
        --j;
      }
      s.kids[j] = kid;
    }
    const int can_prune = std::max(0, d - declined_neighbors);
    const std::size_t pruned =
        std::min<std::size_t>(static_cast<std::size_t>(can_prune), count);
    for (std::size_t c = pruned; c < count; ++c) {
      s.keep[static_cast<std::size_t>(s.kids[c])] = 1;
      s.queue[tail++] = s.kids[c];
    }
    // Heaviest `pruned` subtrees stay keep = 0 (become Decline).
  }
  return {s.keep.data(), m};
}

}  // namespace lcl::algo

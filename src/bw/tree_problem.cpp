#include "bw/tree_problem.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "bw/label_sets.hpp"
#include "decomp/rake_compress.hpp"

namespace lcl::bw {

namespace {

/// Proper 2-coloring of the forest by BFS parity (the W/B split the
/// black-white formalism assumes).
std::vector<int> two_color(const Tree& t) {
  std::vector<int> color(static_cast<std::size_t>(t.size()), -1);
  for (NodeId s = 0; s < t.size(); ++s) {
    if (color[static_cast<std::size_t>(s)] >= 0) continue;
    color[static_cast<std::size_t>(s)] = 0;
    std::deque<NodeId> q{s};
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (NodeId w : t.neighbors(u)) {
        if (color[static_cast<std::size_t>(w)] < 0) {
          color[static_cast<std::size_t>(w)] =
              1 - color[static_cast<std::size_t>(u)];
          q.push_back(w);
        }
      }
    }
  }
  return color;
}

/// Solve-scoped scratch for `feasible_choice`: the candidate multiset and
/// the depth-first label stack, reused across the solve's calls.
struct ChoiceScratch {
  std::vector<int> multiset;
  std::vector<int> stack_label;
};

/// Does some choice l_i in sets[i] make sorted(fixed + l) allowed?
/// Fills `pick` with a witness when non-null. Exponential in |sets| but
/// degrees are constant; a combination cap guards misuse.
bool feasible_choice(const TreeBwProblem& problem, int color,
                     const std::vector<int>& fixed,
                     const std::vector<LabelSet>& sets,
                     ChoiceScratch& scratch, std::vector<int>* pick) {
  std::int64_t combos = 1;
  for (LabelSet s : sets) {
    combos *= std::max(1, __builtin_popcount(s));
    if (combos > 2'000'000) {
      throw std::runtime_error("tree_bw: combination explosion");
    }
  }
  // Depth-first over the free edges.
  std::vector<int>& stack_label = scratch.stack_label;
  std::vector<int>& multiset = scratch.multiset;
  stack_label.assign(sets.size(), -1);
  std::size_t depth = 0;
  while (true) {
    if (depth == sets.size()) {
      multiset.assign(fixed.begin(), fixed.end());
      multiset.insert(multiset.end(), stack_label.begin(), stack_label.end());
      std::sort(multiset.begin(), multiset.end());
      if (problem.allowed(color, multiset)) {
        if (pick != nullptr) {
          pick->assign(stack_label.begin(), stack_label.end());
        }
        return true;
      }
      if (depth == 0) return false;
      --depth;
    }
    // Advance the label at `depth`.
    bool advanced = false;
    for (int l = stack_label[depth] + 1; l < problem.alphabet; ++l) {
      if ((sets[depth] >> l) & 1u) {
        stack_label[depth] = l;
        advanced = true;
        break;
      }
    }
    if (advanced) {
      ++depth;
      if (depth < sets.size()) stack_label[depth] = -1;
    } else {
      stack_label[depth] = -1;
      if (depth == 0) return false;
      --depth;
    }
  }
}

}  // namespace

EdgeIndex EdgeIndex::build(const Tree& t) {
  // Per-node port slots coincide with the Tree's CSR slots, so the id
  // array reuses the tree's own offsets instead of recomputing them.
  // Ids go to edges in (lower endpoint, port) order; each one is also
  // queued as (lower endpoint, id) in the upper endpoint's CSR range, at
  // most one entry per lower neighbor, so the mirror pass reads it back
  // through a neighbor -> id map in O(n + m).
  const auto off = t.offsets();
  const auto n = static_cast<std::size_t>(t.size());
  EdgeIndex idx;
  idx.id.assign(t.adjacency().size(), -1);
  std::vector<std::pair<NodeId, std::int64_t>> queued(t.adjacency().size());
  std::vector<std::size_t> queued_count(n, 0);
  std::int64_t next = 0;
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto begin =
        static_cast<std::size_t>(off[static_cast<std::size_t>(v)]);
    const auto nb = t.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] <= v) continue;
      const auto u = static_cast<std::size_t>(nb[p]);
      idx.id[begin + p] = next;
      queued[static_cast<std::size_t>(off[u]) + queued_count[u]++] = {v, next};
      ++next;
    }
  }
  // Mirror the ids on the upper endpoints.
  std::vector<std::int64_t> id_of(n, -1);
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto begin =
        static_cast<std::size_t>(off[static_cast<std::size_t>(v)]);
    for (std::size_t q = 0; q < queued_count[static_cast<std::size_t>(v)];
         ++q) {
      const auto& [lower, id] = queued[begin + q];
      id_of[static_cast<std::size_t>(lower)] = id;
    }
    const auto nb = t.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] < v) {
        idx.id[begin + p] = id_of[static_cast<std::size_t>(nb[p])];
      }
    }
  }
  idx.edge_count = next;
  return idx;
}

std::int64_t EdgeIndex::of(const Tree& t, NodeId v, int port) const {
  return id[static_cast<std::size_t>(
                t.offsets()[static_cast<std::size_t>(v)]) +
            static_cast<std::size_t>(port)];
}

TreeBwResult solve_tree_bw(const Tree& tree, const TreeBwProblem& problem,
                           const decomp::Decomposition& dec,
                           const EdgeIndex& edges) {
  const auto n = static_cast<std::size_t>(tree.size());
  if (dec.assignment.size() != n) {
    throw std::invalid_argument(
        "solve_tree_bw: decomposition size does not match the tree");
  }
  if (edges.id.size() != tree.adjacency().size()) {
    throw std::invalid_argument(
        "solve_tree_bw: edge index size does not match the tree");
  }
  if (dec.gamma != kDecompGamma || dec.ell != kDecompEll || dec.relaxed) {
    throw std::invalid_argument(
        "solve_tree_bw: needs the (gamma=1, ell=4, proper) decomposition");
  }

  TreeBwResult res;
  const std::vector<int> color = two_color(tree);
  std::vector<LabelSet> edge_set(static_cast<std::size_t>(edges.edge_count),
                                 0);
  res.edge_label.assign(static_cast<std::size_t>(edges.edge_count), -1);

  // Layer keys, computed once, and the nodes ordered by (key, id). With
  // gamma = 1 every rake sublayer is 1, so the key order is the order of
  // the rank 2*(layer-1) + [compress]: a stable counting sort over at most
  // 2*num_layers buckets replaces a comparison sort.
  const auto rank_of = [](const decomp::LayerAssignment& a) {
    return 2 * (a.layer - 1) + (a.kind == decomp::LayerKind::kCompress);
  };
  const auto layers = static_cast<std::size_t>(std::max(dec.num_layers, 0));
  std::vector<std::int64_t> key(n);
  std::vector<std::size_t> bucket(2 * layers + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const decomp::LayerAssignment& a = dec.assignment[v];
    const bool rake = a.kind == decomp::LayerKind::kRake;
    if (a.layer < 1 || a.layer > dec.num_layers ||
        a.sublayer != (rake ? 1 : 0)) {
      throw std::invalid_argument(
          "solve_tree_bw: decomposition assigns node " + std::to_string(v) +
          " outside its layers");
    }
    key[v] = decomp::layer_order_key(a);
    ++bucket[static_cast<std::size_t>(rank_of(a)) + 1];
  }
  for (std::size_t b = 1; b < bucket.size(); ++b) bucket[b] += bucket[b - 1];
  std::vector<NodeId> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[bucket[static_cast<std::size_t>(rank_of(dec.assignment[v]))]++] =
        static_cast<NodeId>(v);
  }
  const auto key_of = [&](NodeId v) {
    return key[static_cast<std::size_t>(v)];
  };

  // Solve-scoped buffers: every per-node and per-chain step below reuses
  // these instead of allocating.
  ChoiceScratch scratch;
  std::vector<int> in_ports, out_ports, set_ports, fixed, fixed_last, picks;
  std::vector<LabelSet> sets;
  std::vector<std::pair<int, int>> pairs;
  std::vector<char> reach;
  std::vector<int> pred, chain_edges;
  std::vector<NodeId> comp;

  // feasible_choice for node v over the label-sets currently in `sets`.
  auto feasible = [&](NodeId v, const std::vector<int>& fixed_labels,
                      std::vector<int>* pick) {
    return feasible_choice(problem, color[static_cast<std::size_t>(v)],
                           fixed_labels, sets, scratch, pick);
  };

  // Splits a node's ports into (incoming = lower key, outgoing ports).
  auto split_ports = [&](NodeId v) {
    in_ports.clear();
    out_ports.clear();
    const auto nb = tree.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      (key_of(nb[p]) < key_of(v) ? in_ports : out_ports)
          .push_back(static_cast<int>(p));
    }
  };
  // Fills `sets` (and `set_ports`) with the label-sets on v's incoming
  // edges from raked subtrees, skipping compress-chain mates.
  auto gather_in_sets = [&](NodeId v) {
    split_ports(v);
    sets.clear();
    set_ports.clear();
    for (int p : in_ports) {
      const NodeId u = tree.neighbors(v)[static_cast<std::size_t>(p)];
      if (key_of(u) == key_of(v)) continue;  // chain mate
      sets.push_back(edge_set[static_cast<std::size_t>(edges.of(tree, v, p))]);
      set_ports.push_back(p);
    }
  };

  // --- Chain discovery for compress components ----------------------
  std::vector<char> chain_done(n, 0);
  auto collect_chain = [&](NodeId v) {
    // Same compress layer, connected (BFS with `comp` as the queue).
    comp.clear();
    comp.push_back(v);
    chain_done[static_cast<std::size_t>(v)] = 1;
    for (std::size_t head = 0; head < comp.size(); ++head) {
      const NodeId u = comp[head];
      for (NodeId w : tree.neighbors(u)) {
        if (!chain_done[static_cast<std::size_t>(w)] &&
            key_of(w) == key_of(u)) {
          chain_done[static_cast<std::size_t>(w)] = 1;
          comp.push_back(w);
        }
      }
    }
    // Order the component as a path.
    std::vector<NodeId> path;
    path.reserve(comp.size());
    NodeId end = comp.front();
    for (NodeId u : comp) {
      int same = 0;
      for (NodeId w : tree.neighbors(u)) {
        if (key_of(w) == key_of(u)) ++same;
      }
      if (same <= 1) end = u;
    }
    NodeId prev = graph::kInvalidNode;
    NodeId cur = end;
    while (cur != graph::kInvalidNode) {
      path.push_back(cur);
      NodeId next = graph::kInvalidNode;
      for (NodeId w : tree.neighbors(cur)) {
        if (w != prev && key_of(w) == key_of(cur)) next = w;
      }
      prev = cur;
      cur = next;
    }
    return path;
  };

  // Outgoing ports of a compress chain (toward strictly higher keys) on
  // its front and back node; -1 when absent. Chain i's nodes are
  // res.chains[i].nodes.
  struct ChainPorts {
    int left_out_port = -1;
    int right_out_port = -1;
  };
  const int a = problem.alphabet;

  // Commits a chain whose DP reached its last node `len-1` from chain
  // edge label `e_prev` (unused when the chain is one node): walks the
  // predecessors back, labels the chain edges, then picks the incoming
  // labels at every chain node. It reuses the DP's node buffers (`sets`,
  // `fixed`, ...), so the DP must stop once it has committed.
  auto commit_chain = [&](const std::vector<NodeId>& path, int e_prev) {
    const std::size_t len = path.size();
    chain_edges.assign(len - 1, -1);
    if (len > 1) {
      chain_edges[len - 2] = e_prev;
      for (std::size_t j = len - 2; j > 0; --j) {
        chain_edges[j - 1] = pred[j * static_cast<std::size_t>(a) +
                                  static_cast<std::size_t>(chain_edges[j])];
      }
    }
    for (std::size_t j = 0; j + 1 < len; ++j) {
      const NodeId x = path[j];
      const auto nb = tree.neighbors(x);
      for (std::size_t p = 0; p < nb.size(); ++p) {
        if (nb[p] == path[j + 1]) {
          res.edge_label[static_cast<std::size_t>(
              edges.of(tree, x, static_cast<int>(p)))] = chain_edges[j];
        }
      }
    }
    for (const NodeId x : path) {
      gather_in_sets(x);
      fixed.clear();
      for (int p = 0; p < tree.degree(x); ++p) {
        const int lab =
            res.edge_label[static_cast<std::size_t>(edges.of(tree, x, p))];
        if (lab >= 0 &&
            std::find(set_ports.begin(), set_ports.end(), p) ==
                set_ports.end()) {
          fixed.push_back(lab);
        }
      }
      if (!feasible(x, fixed, &picks)) {
        throw std::logic_error("tree_bw: chain commit infeasible");
      }
      for (std::size_t s = 0; s < set_ports.size(); ++s) {
        res.edge_label[static_cast<std::size_t>(
            edges.of(tree, x, set_ports[s]))] = picks[s];
      }
    }
  };

  // The per-chain DP. Fills `pairs` with the feasible (left, right)
  // outgoing pairs or, when `commit` is set with fixed outgoing labels,
  // commits the first witness (chain-edge and incoming labels) and stops.
  auto chain_pairs = [&](const std::vector<NodeId>& path,
                         const ChainPorts& ports, int fixed_left,
                         int fixed_right, bool commit) {
    const std::size_t len = path.size();
    const auto ua = static_cast<std::size_t>(a);
    pairs.clear();
    // DP per left label separately (the alphabet is tiny).
    for (int l = 0; l < a; ++l) {
      if (fixed_left >= 0 && l != fixed_left) continue;
      // reach[i*a+e]: prefix through node i with chain edge (i,i+1)
      // labeled e is completable; pred[i*a+e] = previous edge label.
      reach.assign(len * ua, 0);
      pred.assign(len * ua, -1);
      for (std::size_t i = 0; i < len; ++i) {
        const NodeId v = path[i];
        gather_in_sets(v);
        const bool first = (i == 0);
        const bool last = (i + 1 == len);
        for (int e_prev = 0; e_prev < (first ? 1 : a); ++e_prev) {
          if (!first &&
              !reach[(i - 1) * ua + static_cast<std::size_t>(e_prev)]) {
            continue;
          }
          for (int e_next = 0; e_next < (last ? 1 : a); ++e_next) {
            fixed.clear();
            if (first) {
              if (ports.left_out_port >= 0) fixed.push_back(l);
            } else {
              fixed.push_back(e_prev);
            }
            if (!last) {
              fixed.push_back(e_next);
              if (feasible(v, fixed, nullptr)) {
                const std::size_t at =
                    i * ua + static_cast<std::size_t>(e_next);
                reach[at] = 1;
                if (pred[at] < 0) pred[at] = first ? -2 : e_prev;
              }
              continue;
            }
            for (int r = 0; r < a; ++r) {
              if (fixed_right >= 0 && r != fixed_right) continue;
              fixed_last.assign(fixed.begin(), fixed.end());
              if (ports.right_out_port >= 0) fixed_last.push_back(r);
              if (feasible(v, fixed_last, nullptr)) {
                pairs.emplace_back(l, r);
                if (commit) {
                  commit_chain(path, e_prev);
                  return;  // committed one witness
                }
              }
            }
          }
        }
      }
    }
  };

  // --- Bottom-up: label-sets ----------------------------------------
  std::vector<ChainPorts> chains;
  std::vector<int> chain_of(n, -1);
  for (NodeId v : order) {
    const auto& assign = dec.assignment[static_cast<std::size_t>(v)];
    if (assign.kind == decomp::LayerKind::kCompress) {
      if (chain_done[static_cast<std::size_t>(v)]) continue;
      std::vector<NodeId> path = collect_chain(v);
      ChainPorts ports;
      // Outgoing ports at both endpoints (toward strictly higher keys).
      split_ports(path.front());
      for (int p : out_ports) {
        const NodeId u =
            tree.neighbors(path.front())[static_cast<std::size_t>(p)];
        if (key_of(u) > key_of(path.front())) ports.left_out_port = p;
      }
      if (path.size() > 1) {
        split_ports(path.back());
        for (int p : out_ports) {
          const NodeId u =
              tree.neighbors(path.back())[static_cast<std::size_t>(p)];
          if (key_of(u) > key_of(path.back())) ports.right_out_port = p;
        }
      }
      chain_pairs(path, ports, -1, -1, /*commit=*/false);
      const Rectangle rect = independent_rectangle(pairs, a);
      const bool need_left = ports.left_out_port >= 0;
      const bool need_right = ports.right_out_port >= 0;
      if ((need_left && rect.left == 0) ||
          (need_right && rect.right == 0) || pairs.empty()) {
        res.failure = "empty class at compress chain near node " +
                      std::to_string(v);
        return res;
      }
      if (need_left) {
        edge_set[static_cast<std::size_t>(edges.of(
            tree, path.front(), ports.left_out_port))] = rect.left;
      }
      if (need_right) {
        edge_set[static_cast<std::size_t>(edges.of(
            tree, path.back(), ports.right_out_port))] = rect.right;
      }
      chain_of[static_cast<std::size_t>(path.front())] =
          static_cast<int>(chains.size());
      chains.push_back(ports);
      ChainRecord record;
      record.nodes = std::move(path);
      record.left = need_left ? rect.left : 0;
      record.right = need_right ? rect.right : 0;
      res.chains.push_back(std::move(record));
      continue;
    }

    // Rake node: compute g(v) for the (unique) outgoing edge.
    split_ports(v);
    sets.clear();
    for (int p : in_ports) {
      sets.push_back(
          edge_set[static_cast<std::size_t>(edges.of(tree, v, p))]);
    }
    if (out_ports.empty()) {
      fixed.clear();
      if (!feasible(v, fixed, nullptr)) {
        res.failure = "infeasible root node " + std::to_string(v);
        return res;
      }
      continue;
    }
    if (out_ports.size() > 1) {
      res.failure = "rake node with two higher neighbors (decomposition "
                    "violation) at " +
                    std::to_string(v);
      return res;
    }
    LabelSet g = 0;
    for (int o = 0; o < a; ++o) {
      fixed.assign(1, o);
      if (feasible(v, fixed, nullptr)) g |= (1u << o);
    }
    if (g == 0) {
      res.failure = "empty label-set at node " + std::to_string(v);
      return res;
    }
    edge_set[static_cast<std::size_t>(edges.of(tree, v, out_ports[0]))] =
        g;
  }

  // --- Top-down: commit labels ---------------------------------------
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    const auto& assign = dec.assignment[static_cast<std::size_t>(v)];
    if (assign.kind == decomp::LayerKind::kCompress) {
      const int ci = chain_of[static_cast<std::size_t>(v)];
      if (ci < 0) continue;  // interior / non-anchor chain nodes
      const ChainPorts& ports = chains[static_cast<std::size_t>(ci)];
      const std::vector<NodeId>& path =
          res.chains[static_cast<std::size_t>(ci)].nodes;
      int fixed_left = -1, fixed_right = -1;
      if (ports.left_out_port >= 0) {
        fixed_left = res.edge_label[static_cast<std::size_t>(
            edges.of(tree, path.front(), ports.left_out_port))];
      } else {
        fixed_left = 0;  // unused by the DP when there is no left port
      }
      if (ports.right_out_port >= 0) {
        fixed_right = res.edge_label[static_cast<std::size_t>(
            edges.of(tree, path.back(), ports.right_out_port))];
      }
      chain_pairs(path, ports, fixed_left, fixed_right, /*commit=*/true);
      if (pairs.empty()) {
        throw std::logic_error(
            "tree_bw: independent rectangle was not completable");
      }
      continue;
    }

    // Rake node: outgoing already labeled by the higher layer (or none);
    // pick incoming labels.
    split_ports(v);
    fixed.clear();
    for (int p : out_ports) {
      const int lab = res.edge_label[static_cast<std::size_t>(
          edges.of(tree, v, p))];
      if (lab < 0) {
        throw std::logic_error("tree_bw: outgoing edge not yet labeled");
      }
      fixed.push_back(lab);
    }
    sets.clear();
    for (int p : in_ports) {
      sets.push_back(
          edge_set[static_cast<std::size_t>(edges.of(tree, v, p))]);
    }
    if (!feasible(v, fixed, &picks)) {
      throw std::logic_error("tree_bw: committed set not completable");
    }
    for (std::size_t s = 0; s < in_ports.size(); ++s) {
      res.edge_label[static_cast<std::size_t>(
          edges.of(tree, v, in_ports[s]))] = picks[s];
    }
  }

  res.solved = true;
  return res;
}

TreeBwResult solve_tree_bw_global(const Tree& tree,
                                  const TreeBwProblem& problem,
                                  const EdgeIndex& edges) {
  if (edges.id.size() != tree.adjacency().size()) {
    throw std::invalid_argument(
        "solve_tree_bw_global: edge index size does not match the tree");
  }
  TreeBwResult res;
  const std::vector<int> color = two_color(tree);
  const NodeId n = tree.size();
  res.edge_label.assign(static_cast<std::size_t>(edges.edge_count), -1);

  // Root every component at its smallest node; record a BFS order so the
  // reverse is a valid bottom-up order (children before parents) without
  // recursion (components can be 10^5-node paths).
  std::vector<NodeId> parent(static_cast<std::size_t>(n),
                             graph::kInvalidNode);
  std::vector<int> parent_port(static_cast<std::size_t>(n), -1);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> bfs;
  bfs.reserve(static_cast<std::size_t>(n));
  for (NodeId root = 0; root < n; ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    visited[static_cast<std::size_t>(root)] = 1;
    bfs.push_back(root);
    for (std::size_t head = bfs.size() - 1; head < bfs.size(); ++head) {
      const NodeId v = bfs[head];
      const auto nb = tree.neighbors(v);
      for (std::size_t p = 0; p < nb.size(); ++p) {
        const NodeId u = nb[p];
        if (visited[static_cast<std::size_t>(u)]) continue;
        visited[static_cast<std::size_t>(u)] = 1;
        parent[static_cast<std::size_t>(u)] = v;
        // Record u's port toward v for the edge-id lookup at commit time.
        const auto unb = tree.neighbors(u);
        for (std::size_t q = 0; q < unb.size(); ++q) {
          if (unb[q] == v) {
            parent_port[static_cast<std::size_t>(u)] =
                static_cast<int>(q);
          }
        }
        bfs.push_back(u);
      }
    }
  }

  // Bottom-up: up[v] = labels the edge (v, parent) can carry such that
  // v's subtree completes. Children's sets are independent (disjoint
  // subtrees), so feasible_choice's exists-a-choice semantics is exact.
  std::vector<LabelSet> up(static_cast<std::size_t>(n), 0);
  ChoiceScratch scratch;
  std::vector<LabelSet> sets;
  std::vector<int> fixed, set_ports, picks;
  for (auto it = bfs.rbegin(); it != bfs.rend(); ++it) {
    const NodeId v = *it;
    sets.clear();
    const auto nb = tree.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] == parent[static_cast<std::size_t>(v)]) continue;
      sets.push_back(up[static_cast<std::size_t>(nb[p])]);
    }
    if (parent[static_cast<std::size_t>(v)] == graph::kInvalidNode) {
      // Component root: solvable iff some choice over the children's
      // sets completes the root's own multiset constraint.
      fixed.clear();
      if (!feasible_choice(problem, color[static_cast<std::size_t>(v)],
                           fixed, sets, scratch, nullptr)) {
        res.failure =
            "global DP: no completion at root " + std::to_string(v);
        return res;
      }
      continue;
    }
    LabelSet g = 0;
    for (int o = 0; o < problem.alphabet; ++o) {
      fixed.assign(1, o);
      if (feasible_choice(problem, color[static_cast<std::size_t>(v)],
                          fixed, sets, scratch, nullptr)) {
        g |= (1u << o);
      }
    }
    if (g == 0) {
      res.failure =
          "global DP: empty up-set at node " + std::to_string(v);
      return res;
    }
    up[static_cast<std::size_t>(v)] = g;
  }

  // Top-down commit in BFS order: the parent edge's label is fixed when
  // v is reached; choose child-edge labels from the children's up-sets.
  for (const NodeId v : bfs) {
    fixed.clear();
    if (parent[static_cast<std::size_t>(v)] != graph::kInvalidNode) {
      fixed.push_back(res.edge_label[static_cast<std::size_t>(edges.of(
          tree, v, parent_port[static_cast<std::size_t>(v)]))]);
    }
    sets.clear();
    set_ports.clear();
    const auto nb = tree.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] == parent[static_cast<std::size_t>(v)]) continue;
      sets.push_back(up[static_cast<std::size_t>(nb[p])]);
      set_ports.push_back(static_cast<int>(p));
    }
    if (!feasible_choice(problem, color[static_cast<std::size_t>(v)],
                         fixed, sets, scratch, &picks)) {
      throw std::logic_error("tree_bw: global DP commit infeasible");
    }
    for (std::size_t s = 0; s < set_ports.size(); ++s) {
      res.edge_label[static_cast<std::size_t>(
          edges.of(tree, v, set_ports[s]))] = picks[s];
    }
  }

  res.solved = true;
  return res;
}

std::string check_tree_bw(const Tree& tree, const TreeBwProblem& problem,
                          const std::vector<int>& edge_label) {
  const EdgeIndex edges = EdgeIndex::build(tree);
  const std::vector<int> color = two_color(tree);
  if (static_cast<std::int64_t>(edge_label.size()) != edges.edge_count) {
    return "edge label vector size mismatch";
  }
  for (NodeId v = 0; v < tree.size(); ++v) {
    std::vector<int> incident;
    for (int p = 0; p < tree.degree(v); ++p) {
      const int lab =
          edge_label[static_cast<std::size_t>(edges.of(tree, v, p))];
      if (lab < 0 || lab >= problem.alphabet) {
        return "edge at node " + std::to_string(v) + " unlabeled";
      }
      incident.push_back(lab);
    }
    std::sort(incident.begin(), incident.end());
    if (!problem.allowed(color[static_cast<std::size_t>(v)], incident)) {
      return "constraint violated at node " + std::to_string(v);
    }
  }
  return {};
}

TreeBwProblem make_bw_free(int alphabet) {
  TreeBwProblem p;
  p.alphabet = alphabet;
  p.name = "bw-free";
  p.allowed = [](int, const std::vector<int>&) { return true; };
  return p;
}

TreeBwProblem make_bw_edge_coloring(int colors) {
  TreeBwProblem p;
  p.alphabet = colors;
  p.name = "edge-coloring";
  p.allowed = [](int, const std::vector<int>& labels) {
    for (std::size_t i = 1; i < labels.size(); ++i) {
      if (labels[i] == labels[i - 1]) return false;
    }
    return true;
  };
  return p;
}

TreeBwProblem make_bw_sinkless() {
  TreeBwProblem p;
  p.alphabet = 2;
  p.name = "sinkless-orientation";
  // Label 1 on an edge = oriented away from the white endpoint. A node
  // of degree >= 2 needs an outgoing edge: white nodes need some 1,
  // black nodes need some 0.
  p.allowed = [](int color, const std::vector<int>& labels) {
    if (labels.size() <= 1) return true;  // leaves are exempt
    const int need = color == 0 ? 1 : 0;
    for (int l : labels) {
      if (l == need) return true;
    }
    return false;
  };
  return p;
}

TreeBwProblem make_bw_weak_matching() {
  TreeBwProblem p;
  p.alphabet = 2;
  p.name = "weak-matching";
  p.allowed = [](int, const std::vector<int>& labels) {
    int ones = 0;
    for (int l : labels) ones += (l == 1);
    return ones <= 1;
  };
  return p;
}

}  // namespace lcl::bw

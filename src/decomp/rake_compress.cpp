#include "decomp/rake_compress.hpp"

#include <algorithm>
#include <deque>
#include <span>
#include <stdexcept>

namespace lcl::decomp {

namespace {

/// Working state for the peeling process. The per-(sub)step worksets
/// (`eligible`, `peel`, chain scanning marks and buffers) live here and
/// are reused rather than re-allocated, so one decomposition performs a
/// constant number of heap allocations regardless of the layer count.
///
/// `cand` is the rake worklist: every alive node of remaining degree <= 1
/// that can still become rake-eligible. It is seeded with the initial
/// leaves and isolated nodes, and `remove()` appends a neighbor whose
/// degree drops to <= 1. A rake sub-step scans `cand` instead of all n
/// nodes, so the rake work is O(n) over the whole run plus O(1) per
/// sub-step, whatever gamma is. The compress step scans `alive_list`, the
/// alive nodes in increasing id order, compacted once per layer.
struct Peeler {
  const Tree& tree;
  std::vector<int> degree;      // remaining degree
  std::vector<char> removed;    // 1 once assigned
  std::vector<char> queued;     // 1 while the node sits in `cand`
  std::vector<char> eligible;   // rake-substep workset
  std::vector<char> in_chain;   // compress-step workset (alive nodes)
  std::vector<char> visited;    // compress-step chain scan marks (alive)
  std::vector<NodeId> cand;     // rake worklist
  std::vector<NodeId> elig;     // nodes marked in `eligible` this substep
  std::vector<NodeId> peel;     // nodes raked this substep
  std::vector<NodeId> alive_list;    // alive nodes, increasing
  std::vector<NodeId> chain_nodes;   // this layer's chains, concatenated
  std::vector<std::size_t> chain_start;  // chain i = [start[i], start[i+1])
  Decomposition out;
  int step = 0;  // global peeling-time counter

  explicit Peeler(const Tree& t) : tree(t) {
    const std::size_t n = static_cast<std::size_t>(t.size());
    degree.resize(n);
    removed.assign(n, 0);
    queued.assign(n, 0);
    eligible.assign(n, 0);
    in_chain.assign(n, 0);
    visited.assign(n, 0);
    alive_list.resize(n);
    out.assignment.resize(n);
    out.assign_step.assign(n, 0);
    for (NodeId v = 0; v < t.size(); ++v) {
      degree[static_cast<std::size_t>(v)] = t.degree(v);
      alive_list[static_cast<std::size_t>(v)] = v;
      if (t.degree(v) <= 1) enqueue(v);
    }
  }

  [[nodiscard]] bool alive(NodeId v) const {
    return removed[static_cast<std::size_t>(v)] == 0;
  }

  void enqueue(NodeId v) {
    queued[static_cast<std::size_t>(v)] = 1;
    cand.push_back(v);
  }

  void remove(NodeId v, LayerAssignment a) {
    removed[static_cast<std::size_t>(v)] = 1;
    out.assignment[static_cast<std::size_t>(v)] = a;
    out.assign_step[static_cast<std::size_t>(v)] = step;
    for (NodeId u : tree.neighbors(v)) {
      const auto ui = static_cast<std::size_t>(u);
      if (alive(u) && --degree[ui] <= 1 && queued[ui] == 0) enqueue(u);
    }
  }
};

}  // namespace

Decomposition rake_compress(const Tree& tree, int gamma, int ell,
                            bool split_paths, int max_layers,
                            const std::vector<char>* pinned) {
  if (gamma < 1) throw std::invalid_argument("rake_compress: gamma >= 1");
  if (ell < 1) throw std::invalid_argument("rake_compress: ell >= 1");

  auto is_pinned = [&](NodeId v) {
    return pinned != nullptr && (*pinned)[static_cast<std::size_t>(v)] != 0;
  };

  Peeler p(tree);
  p.out.gamma = gamma;
  p.out.ell = ell;
  p.out.relaxed = !split_paths;

  // A pinned node of degree 1 rakes only if its last neighbor is pinned
  // too and has the larger LOCAL id (mutual pins resolve by id to avoid
  // stalling); otherwise it waits until its degree drops to 0.
  auto pinned_waits = [&](NodeId v) {
    if (!is_pinned(v) || p.degree[static_cast<std::size_t>(v)] != 1) {
      return false;
    }
    NodeId last = graph::kInvalidNode;
    for (NodeId u : tree.neighbors(v)) {
      if (p.alive(u)) last = u;
    }
    return !(last != graph::kInvalidNode && is_pinned(last) &&
             tree.local_id(v) < tree.local_id(last));
  };

  std::int64_t remaining = tree.size();
  int layer = 0;
  while (remaining > 0) {
    ++layer;
    if (layer > max_layers) {
      throw std::runtime_error("rake_compress: layer budget exceeded");
    }
    const std::int64_t remaining_at_start = remaining;

    // gamma rake sub-steps. Two adjacent rake-eligible nodes (the final
    // pair of a path component) must not share a sublayer (Definition 71
    // property 3): the smaller LOCAL id rakes first, its partner follows
    // in the next sub-step.
    for (int j = 1; j <= gamma && remaining > 0; ++j) {
      ++p.step;
      // Mark this sub-step's eligible nodes from the worklist, dropping
      // dead entries and waiting pinned nodes. A waiting pinned node's
      // last neighbor cannot change while it waits, so it stays blocked
      // until that neighbor is removed; `remove()` re-queues it then.
      std::vector<NodeId>& cand = p.cand;
      std::vector<NodeId>& elig = p.elig;
      elig.clear();
      std::size_t keep = 0;
      for (const NodeId v : cand) {
        if (!p.alive(v) || pinned_waits(v)) {
          p.queued[static_cast<std::size_t>(v)] = 0;
          continue;
        }
        cand[keep++] = v;
        p.eligible[static_cast<std::size_t>(v)] = 1;
        elig.push_back(v);
      }
      cand.resize(keep);
      std::vector<NodeId>& peel = p.peel;
      peel.clear();
      for (const NodeId v : elig) {
        bool deferred = false;
        for (NodeId u : tree.neighbors(v)) {
          if (p.alive(u) && p.eligible[static_cast<std::size_t>(u)] &&
              tree.local_id(u) < tree.local_id(v)) {
            deferred = true;
            break;
          }
        }
        if (!deferred) peel.push_back(v);
      }
      for (const NodeId v : elig) p.eligible[static_cast<std::size_t>(v)] = 0;
      if (peel.empty()) break;  // nothing rakes; go to compress
      // Every node raked in one sub-step gets the same (layer, j, step)
      // and the peeled set is independent, so the order is immaterial.
      for (NodeId v : peel) {
        p.remove(v, {LayerKind::kRake, layer, j});
      }
      remaining -= static_cast<std::int64_t>(peel.size());
    }
    if (remaining == 0) break;

    // Compress step: find maximal chains of alive degree-2 nodes. Only
    // alive nodes are scanned and marked; dead ones are never read (every
    // mark lookup is guarded by `alive`).
    ++p.step;
    std::vector<NodeId>& alive_list = p.alive_list;
    std::erase_if(alive_list, [&](NodeId v) { return !p.alive(v); });
    std::vector<char>& in_chain = p.in_chain;
    std::vector<char>& visited = p.visited;
    for (const NodeId v : alive_list) {
      in_chain[static_cast<std::size_t>(v)] =
          (!is_pinned(v) && p.degree[static_cast<std::size_t>(v)] == 2) ? 1
                                                                        : 0;
      visited[static_cast<std::size_t>(v)] = 0;
    }

    std::vector<NodeId>& chain_nodes = p.chain_nodes;
    std::vector<std::size_t>& chain_start = p.chain_start;
    chain_nodes.clear();
    chain_start.assign(1, 0);
    for (const NodeId v : alive_list) {
      if (!in_chain[static_cast<std::size_t>(v)] ||
          visited[static_cast<std::size_t>(v)]) {
        continue;
      }
      // Count chain neighbors of v.
      int chain_deg = 0;
      for (NodeId u : tree.neighbors(v)) {
        if (p.alive(u) && in_chain[static_cast<std::size_t>(u)]) ++chain_deg;
      }
      if (chain_deg == 2) continue;  // interior; start from an end
      // Walk the chain from this end.
      NodeId prev = graph::kInvalidNode;
      NodeId cur = v;
      while (cur != graph::kInvalidNode) {
        visited[static_cast<std::size_t>(cur)] = 1;
        chain_nodes.push_back(cur);
        NodeId next = graph::kInvalidNode;
        for (NodeId u : tree.neighbors(cur)) {
          if (u != prev && p.alive(u) &&
              in_chain[static_cast<std::size_t>(u)] &&
              !visited[static_cast<std::size_t>(u)]) {
            next = u;
            break;
          }
        }
        prev = cur;
        cur = next;
      }
      chain_start.push_back(chain_nodes.size());
    }

    for (std::size_t c = 0; c + 1 < chain_start.size(); ++c) {
      const std::span<const NodeId> chain(
          chain_nodes.data() + chain_start[c],
          chain_start[c + 1] - chain_start[c]);
      const std::int64_t len = static_cast<std::int64_t>(chain.size());
      if (len < ell) continue;  // too short; rakes away in later layers
      if (!split_paths) {
        for (NodeId v : chain) {
          p.remove(v, {LayerKind::kCompress, layer, 0});
        }
        remaining -= len;
        continue;
      }
      // Proper variant: split into segments of length in [ell, 2*ell] by
      // keeping every (ell+1)-th node as a splitter (promoted: it stays
      // alive and will be raked/compressed in a later layer). Segment
      // layout: ell nodes, splitter, ell nodes, splitter, ..., with the
      // final segment absorbing the remainder (< ell extra nodes, so
      // segments stay <= 2*ell).
      std::int64_t idx = 0;
      while (idx < len) {
        std::int64_t seg_end = idx + ell;  // exclusive
        // If what would remain (excluding a splitter) is too small to form
        // another [ell, ...] segment, absorb it into this one.
        if (len - seg_end - 1 < ell) seg_end = len;
        for (std::int64_t t = idx; t < seg_end && t < len; ++t) {
          p.remove(chain[static_cast<std::size_t>(t)],
                   {LayerKind::kCompress, layer, 0});
          --remaining;
        }
        idx = seg_end + 1;  // skip the splitter (stays alive)
      }
    }

    if (remaining == remaining_at_start) {
      // A layer that removes nothing leaves the state unchanged, so no
      // later layer can progress either: a cycle (no node of degree <= 1
      // and no chain end), or pinned leaves waiting on an unpinned hub.
      throw std::runtime_error(
          "rake_compress: no progress (graph contains a cycle, or pinned "
          "nodes can never rake)");
    }
  }

  p.out.num_layers = layer;
  return p.out;
}

namespace {

std::string check_compress_layers(const Tree& tree, const Decomposition& d) {
  const NodeId n = tree.size();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& av = d.assignment[static_cast<std::size_t>(v)];
    if (av.kind != LayerKind::kCompress || seen[static_cast<std::size_t>(v)]) {
      continue;
    }
    // Gather the connected component of same-compress-layer nodes.
    std::vector<NodeId> comp;
    std::deque<NodeId> q{v};
    seen[static_cast<std::size_t>(v)] = 1;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      comp.push_back(u);
      for (NodeId w : tree.neighbors(u)) {
        const auto& aw = d.assignment[static_cast<std::size_t>(w)];
        if (aw.kind == LayerKind::kCompress && aw.layer == av.layer &&
            !seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          q.push_back(w);
        }
      }
    }
    // Must be a path: every node has <= 2 same-layer neighbors, at most
    // two nodes have exactly 1 (endpoints unless it's a 1-node chain,
    // which is forbidden by len >= ell >= 1 ... a chain of 1 has 0).
    const std::int64_t len = static_cast<std::int64_t>(comp.size());
    if (len < d.ell) {
      return "compress component shorter than ell at node " +
             std::to_string(v);
    }
    if (!d.relaxed && len > 2 * d.ell) {
      return "compress component longer than 2*ell at node " +
             std::to_string(v);
    }
    const std::int64_t my_key = layer_order_key(av);
    for (NodeId u : comp) {
      int same = 0;
      int higher = 0;
      for (NodeId w : tree.neighbors(u)) {
        const auto& aw = d.assignment[static_cast<std::size_t>(w)];
        if (aw.kind == LayerKind::kCompress && aw.layer == av.layer) {
          ++same;
        } else if (layer_order_key(aw) > my_key) {
          ++higher;
        } else {
          // lower layer: fine (its subtree was raked before).
        }
      }
      if (same > 2) {
        return "compress component not a path at node " + std::to_string(u);
      }
      const bool endpoint = same <= 1;
      if (endpoint && higher != 1) {
        return "compress endpoint without exactly one higher neighbor "
               "at node " +
               std::to_string(u);
      }
      if (!endpoint && higher != 0) {
        return "compress interior with higher neighbor at node " +
               std::to_string(u);
      }
    }
  }
  return {};
}

std::string check_rake_layers(const Tree& tree, const Decomposition& d) {
  // Sublayer independence: no two adjacent nodes share (layer, sublayer);
  // each rake node has <= 1 neighbor in a strictly higher (sub)layer.
  for (NodeId v = 0; v < tree.size(); ++v) {
    const auto& av = d.assignment[static_cast<std::size_t>(v)];
    if (av.kind != LayerKind::kRake) continue;
    const std::int64_t my_key = layer_order_key(av);
    int higher = 0;
    for (NodeId u : tree.neighbors(v)) {
      const auto& au = d.assignment[static_cast<std::size_t>(u)];
      if (au.kind == LayerKind::kRake && au.layer == av.layer &&
          au.sublayer == av.sublayer) {
        return "adjacent nodes in the same rake sublayer: " +
               std::to_string(v) + "," + std::to_string(u);
      }
      if (layer_order_key(au) > my_key) ++higher;
    }
    if (higher > 1) {
      return "rake node with multiple higher neighbors: " + std::to_string(v);
    }
  }
  return {};
}

}  // namespace

std::string validate_decomposition(const Tree& tree, const Decomposition& d) {
  if (static_cast<NodeId>(d.assignment.size()) != tree.size()) {
    return "assignment size mismatch";
  }
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (d.assignment[static_cast<std::size_t>(v)].layer < 1) {
      return "unassigned node " + std::to_string(v);
    }
  }
  if (std::string e = check_rake_layers(tree, d); !e.empty()) return e;
  if (std::string e = check_compress_layers(tree, d); !e.empty()) return e;
  return {};
}

}  // namespace lcl::decomp

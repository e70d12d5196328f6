#include "algo/pi35.hpp"

#include <stdexcept>

#include "problems/labels.hpp"

namespace lcl::algo {

using graph::NodeId;
using problems::WeightOut;

namespace {

FastDecompPlan make_plan(const graph::Tree& tree, int d) {
  const WeightSubgraph sub = weight_subgraph(tree);
  return run_fast_decomposition(tree, sub.participates, sub.is_a, d);
}

}  // namespace

Pi35Program::Pi35Program(const graph::Tree& tree, Pi35Options options)
    : tree_(tree),
      opt_(std::move(options)),
      generic_(tree,
               GenericOptions{problems::Variant::kThreeHalf, opt_.k,
                              opt_.gammas, opt_.id_space,
                              opt_.symmetry_pad},
               active_levels(tree, opt_.k)),
      plan_(make_plan(tree, opt_.d)) {
  const std::size_t n = static_cast<std::size_t>(tree.size());
  declined_.assign(n, 0);
  prune_round_.assign(n, -1);
  case_of_root_.assign(plan_.components.size(), 0);
  prune_scratch_.reserve(tree, plan_);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (plan_.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      declined_[static_cast<std::size_t>(v)] = 1;
    }
  }
}

void Pi35Program::on_init(local::NodeCtx& ctx) {
  if (is_active(ctx.node())) generic_.on_init(ctx);
}

void Pi35Program::resolve_component(NodeId root, bool active_done,
                                    std::int64_t round) {
  const int comp = plan_.comp_of_root[static_cast<std::size_t>(root)];
  // Case 1 iff some active neighbor has already terminated.
  if (active_done) {
    case_of_root_[static_cast<std::size_t>(comp)] = 1;
    return;
  }
  // Case 2: prune to C'(v); pruned members decline, one hop per round.
  case_of_root_[static_cast<std::size_t>(comp)] = 2;
  const std::span<const char> keep = prune_component(
      tree_, plan_, comp, opt_.d, declined_, prune_scratch_);
  const auto& members =
      plan_.components[static_cast<std::size_t>(comp)];
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (keep[i]) continue;
    const NodeId m = members[i];
    declined_[static_cast<std::size_t>(m)] = 1;
    prune_round_[static_cast<std::size_t>(m)] =
        round + plan_.comp_depth[static_cast<std::size_t>(m)];
  }
}

void Pi35Program::on_round(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  if (is_active(v)) {
    generic_.on_round(ctx);
    return;
  }

  const FdaRole role = plan_.role[static_cast<std::size_t>(v)];
  const std::int64_t r = ctx.round();

  switch (role) {
    case FdaRole::kInactive:
      throw std::logic_error("pi35: weight node without a role");

    case FdaRole::kConnect:
    case FdaRole::kDecline: {
      const int out = role == FdaRole::kConnect
                          ? static_cast<int>(WeightOut::kConnect)
                          : static_cast<int>(WeightOut::kDecline);
      if (r >= plan_.ready_round[static_cast<std::size_t>(v)]) {
        ctx.terminate(out);
      }
      return;
    }

    case FdaRole::kCopyRoot: {
      const std::int64_t decide =
          plan_.ready_round[static_cast<std::size_t>(v)];
      if (r < decide) return;
      // The first terminated active neighbor (smallest port), if any.
      int src = -1;
      const auto nb = tree_.neighbors(v);
      for (std::size_t p = 0; p < nb.size(); ++p) {
        if (is_active(nb[p]) && ctx.neighbor_terminated(static_cast<int>(p))) {
          src = static_cast<int>(p);
          break;
        }
      }
      const int comp = plan_.comp_of_root[static_cast<std::size_t>(v)];
      if (case_of_root_[static_cast<std::size_t>(comp)] == 0) {
        resolve_component(v, src >= 0, r);
      }
      // Flood: adopt the first terminated active neighbor's label.
      if (src >= 0) {
        const int label = ctx.neighbor_output(src).primary;
        ctx.publish({label});
        ctx.terminate(static_cast<int>(WeightOut::kCopy), label);
        ++copies_kept_;
      }
      return;
    }

    case FdaRole::kCopyMember: {
      // Pruned members decline at their scheduled round.
      const std::int64_t pr = prune_round_[static_cast<std::size_t>(v)];
      if (pr >= 0) {
        if (r >= pr) ctx.terminate(static_cast<int>(WeightOut::kDecline));
        return;
      }
      // Kept members listen for the flood from their parent.
      const int pp = plan_.flood_parent_port[static_cast<std::size_t>(v)];
      const local::RegView reg = ctx.peek(pp);
      if (!reg.empty()) {
        ctx.publish({reg[0]});
        ctx.terminate(static_cast<int>(WeightOut::kCopy),
                      static_cast<int>(reg[0]));
        ++copies_kept_;
      }
      return;
    }
  }
}

std::int64_t Pi35Program::first_action_round(NodeId v) const {
  const auto i = static_cast<std::size_t>(v);
  switch (plan_.role[i]) {
    case FdaRole::kInactive:
      return 0;  // throws in round 1, like its per-node twin
    case FdaRole::kConnect:
    case FdaRole::kDecline:
    case FdaRole::kCopyRoot:
      return plan_.ready_round[i];
    case FdaRole::kCopyMember:
      // Its parent publishes at the root's decision round at the
      // earliest, and a pruning Decline comes at least one round later.
      return plan_.ready_round[static_cast<std::size_t>(
                 plan_.comp_root[i])] +
             1;
  }
  return 0;
}

void Pi35Program::on_init_batch(local::BatchCtx& batch,
                                local::NodeSpan nodes) {
  // The generic kernel skips weight nodes; a weight node's per-node twin
  // idles until its first action round.
  generic_.on_init_batch(batch, nodes);
  for (const NodeId v : nodes) {
    if (!is_active(v)) batch.sleep_until(v, first_action_round(v));
  }
}

void Pi35Program::on_round_batch(local::BatchCtx& batch,
                                 local::NodeSpan nodes) {
  generic_.on_round_batch(batch, nodes);

  // Weight nodes in ascending id, the per-node order: a root's pruning
  // reads the Declines of components resolved before it this round.
  const std::int64_t r = batch.round();
  const std::int32_t* off = batch.offsets();
  const NodeId* adj = batch.adjacency();
  for (const NodeId v : nodes) {
    if (is_active(v)) continue;
    const auto i = static_cast<std::size_t>(v);
    const std::int64_t first = first_action_round(v);
    if (r < first) {
      batch.sleep_until(v, first);
      continue;
    }

    switch (plan_.role[i]) {
      case FdaRole::kInactive:
        throw std::logic_error("pi35: weight node without a role");

      case FdaRole::kConnect:
        batch.terminate(v, static_cast<int>(WeightOut::kConnect));
        break;

      case FdaRole::kDecline:
        batch.terminate(v, static_cast<int>(WeightOut::kDecline));
        break;

      case FdaRole::kCopyRoot: {
        NodeId src = graph::kInvalidNode;
        for (auto p = static_cast<std::size_t>(off[v]);
             p < static_cast<std::size_t>(off[v + 1]); ++p) {
          if (is_active(adj[p]) && batch.terminated_visible(adj[p])) {
            src = adj[p];
            break;
          }
        }
        const int comp = plan_.comp_of_root[i];
        if (case_of_root_[static_cast<std::size_t>(comp)] == 0) {
          resolve_component(v, src != graph::kInvalidNode, r);
        }
        // Waits for an active neighbor's termination, which wakes it.
        if (src == graph::kInvalidNode) {
          batch.sleep_until(v, local::BatchCtx::kUntilWoken);
          break;
        }
        const int label = batch.output(src).primary;
        batch.publish(v, {label});
        batch.terminate(v, static_cast<int>(WeightOut::kCopy), label);
        ++copies_kept_;
        break;
      }

      case FdaRole::kCopyMember: {
        const std::int64_t pr = prune_round_[i];
        if (pr >= 0) {
          if (r < pr) {
            batch.sleep_until(v, pr);
          } else {
            batch.terminate(v, static_cast<int>(WeightOut::kDecline));
          }
          break;
        }
        // Kept: waits for the parent's publish, which wakes it.
        const NodeId parent = adj[static_cast<std::size_t>(
            off[v] + plan_.flood_parent_port[i])];
        const local::RegView reg = batch.reg(parent);
        if (reg.empty()) {
          batch.sleep_until(v, local::BatchCtx::kUntilWoken);
          break;
        }
        batch.publish(v, {reg[0]});
        batch.terminate(v, static_cast<int>(WeightOut::kCopy),
                        static_cast<int>(reg[0]));
        ++copies_kept_;
        break;
      }
    }
  }
}

local::RunStats run_pi35(const graph::Tree& tree, Pi35Options options) {
  Pi35Program program(tree, std::move(options));
  local::Engine engine(tree);
  return engine.run(program);
}

}  // namespace lcl::algo

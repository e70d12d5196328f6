// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "algo/registry.hpp"
#include "graph/builders.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"

namespace lcl::test {

/// Asserts a CheckResult passed, printing the checker's reason otherwise.
inline void expect_valid(const problems::CheckResult& r) {
  EXPECT_TRUE(r.ok) << r.reason;
}

inline void assert_valid(const problems::CheckResult& r) {
  ASSERT_TRUE(r.ok) << r.reason;
}

/// All primary outputs of a run.
inline std::vector<int> primaries(const local::RunStats& stats) {
  return stats.primaries();
}

/// Forwards every hook to `inner` and counts what batch dispatch steps:
/// the sum of the `on_round_batch` span sizes and, per node, the rounds
/// it was handed to the kernel. Also checks that every span is strictly
/// increasing. Counts steps only — no timings.
class StepCounter final : public local::Program {
 public:
  StepCounter(local::Program& inner, graph::NodeId n)
      : inner_(inner), steps_(static_cast<std::size_t>(n)) {}

  void on_init(local::NodeCtx& ctx) override { inner_.on_init(ctx); }
  void on_round(local::NodeCtx& ctx) override { inner_.on_round(ctx); }
  void on_init_batch(local::BatchCtx& batch,
                     local::NodeSpan nodes) override {
    inner_.on_init_batch(batch, nodes);
  }
  void on_round_batch(local::BatchCtx& batch,
                      local::NodeSpan nodes) override {
    stepped_ += static_cast<std::int64_t>(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i > 0) EXPECT_LT(nodes[i - 1], nodes[i]) << "span not increasing";
      steps_[static_cast<std::size_t>(nodes[i])].push_back(batch.round());
    }
    inner_.on_round_batch(batch, nodes);
  }

  /// Total node-rounds handed to `on_round_batch`.
  [[nodiscard]] std::int64_t stepped() const { return stepped_; }
  /// The rounds in which v was stepped, increasing.
  [[nodiscard]] const std::vector<std::int64_t>& steps(
      graph::NodeId v) const {
    return steps_[static_cast<std::size_t>(v)];
  }

 private:
  local::Program& inner_;
  std::int64_t stepped_ = 0;
  std::vector<std::vector<std::int64_t>> steps_;
};

/// A test-local registry entry: `P` (default-constructed) is the
/// program, `check` the certificate. Lets `core::run_solver_cell` run
/// programs and checkers that no registered solver has.
template <class P>
algo::SolverSpec fake_spec(
    std::function<problems::CheckResult(const graph::Tree&,
                                        const local::RunStats&)>
        check) {
  algo::SolverSpec spec;
  spec.name = "fake";
  spec.factory = [](const graph::Tree&, const algo::SolverConfig&)
      -> std::unique_ptr<local::Program> { return std::make_unique<P>(); };
  spec.certify = [check = std::move(check)](
                     const graph::Tree& tree, const local::Program&,
                     const local::RunStats& stats,
                     const algo::SolverConfig&) { return check(tree, stats); };
  return spec;
}

}  // namespace lcl::test

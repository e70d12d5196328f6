// The five stages of one certified run, each one call into its layer
// and each wrapped in a span named after that layer:
//
//   graph.build       graph::make_family_instance
//   algo.prepare      algo::prepare_instance
//   algo.factory      SolverSpec::factory
//   local.engine      Engine::run (tls workspace, as the batch runner)
//   problems.certify  SolverSpec::certify (a truncated run passes)
//
// This is the job closure of core::make_solver_job, step for step; the
// sweep replay and the service replay's solves both run it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "algo/registry.hpp"
#include "graph/families.hpp"
#include "local/engine.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr const char* kStageNames[5] = {
    "graph.build", "algo.prepare", "algo.factory", "local.engine",
    "problems.certify"};

struct StageRun {
  double ms[5] = {0, 0, 0, 0, 0};  ///< in kStageNames order
  lcl::local::RunStats stats;
  lcl::problems::CheckResult verdict;
  std::int64_t alloc_events = 0;  ///< Workspace::alloc_events() delta
};

/// Runs the five stages under the span `parent`; `id` tags the spans.
inline StageRun run_stages(Recorder& rec, int parent, std::int64_t id,
                           const lcl::algo::SolverSpec& spec,
                           const lcl::algo::SolverConfig& config,
                           const std::string& family, lcl::graph::NodeId n,
                           std::uint64_t seed, int delta,
                           std::int64_t max_rounds) {
  StageRun out;
  auto stage = [&](int k, auto&& fn) {
    out.ms[k] = timed(rec, kStageNames[k], parent, id, fn);
  };
  lcl::graph::Tree tree;
  stage(0, [&] { tree = lcl::graph::make_family_instance(family, n, seed, delta); });
  stage(1, [&] { lcl::algo::prepare_instance(tree, spec.needs, seed); });
  std::unique_ptr<lcl::local::Program> program;
  stage(2, [&] { program = spec.factory(tree, config); });
  lcl::local::Engine::Workspace& ws = lcl::local::tls_workspace();
  const std::int64_t allocs_before = ws.alloc_events();
  stage(3, [&] {
    lcl::local::Engine engine(tree);
    out.stats = engine.run(*program, ws, max_rounds);
  });
  out.alloc_events = ws.alloc_events() - allocs_before;
  stage(4, [&] {
    out.verdict = out.stats.truncated
                      ? lcl::problems::CheckResult::pass()
                      : spec.certify(tree, *program, out.stats, config);
  });
  return out;
}

}  // namespace perfbench

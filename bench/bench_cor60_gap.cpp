// E8 — Corollary 60: any LCL with worst-case complexity Omega(n) has
// node-averaged complexity Omega(n); combined with Lemma 69's
// Theta(sqrt n) class this exhibits both walls of the
// omega(sqrt n) .. o(n) gap. 2-coloring of paths is the canonical
// Theta(n) witness (exponent ~1); weight-augmented 2.5-coloring with
// k = 2 sits at the sqrt(n) wall (exponent ~1/2); the paper proves
// nothing exists between.
#include <cstdio>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

core::MeasuredRun run_two_coloring(graph::NodeId n, std::uint64_t seed) {
  graph::Tree t = graph::make_path(n);
  graph::assign_ids(t, graph::IdScheme::kShuffled, seed);
  algo::SolverConfig cfg;
  cfg.set("k", 1);
  const auto run =
      algo::run_registered(algo::solver("generic_hier_25"), t, cfg);
  // At k = 1 on a path the Definition-8 certificate is exactly a proper
  // 2-coloring; keep the dedicated checker as a second, independent
  // verdict on top of the spec's.
  const auto check =
      problems::check_two_coloring(t, run.stats.primaries());
  return core::measure_run(
      static_cast<double>(n), run.stats,
      run.verdict.ok ? check : run.verdict);
}

}  // namespace

namespace lcl::bench {

void run_cor60_gap(ScenarioContext& ctx) {
  std::printf("== E8: Corollary 60 — the omega(sqrt n)..o(n) gap ==\n\n");
  std::vector<core::BatchJob> jobs;
  for (const std::int64_t base : {2000, 5657, 16000, 45255}) {
    const auto n = static_cast<graph::NodeId>(ctx.scaled(base));
    core::BatchJob job;
    job.scale = static_cast<double>(n);
    job.seed = static_cast<std::uint64_t>(n);
    job.run = [n](std::uint64_t seed) {
      return run_two_coloring(n, seed);
    };
    jobs.push_back(std::move(job));
  }
  auto runs = ctx.run_sweep(std::move(jobs));
  ctx.report(
      "2-coloring of paths: worst case Theta(n) forces node-avg Theta(n)",
      "n", 1.0, 1.0, std::move(runs));
  std::printf(
      "Lemma 59's amplification in action: a node running t rounds forces\n"
      "t/2 - 1 nodes within distance t/2 to run t/2 rounds, so linear\n"
      "worst case implies linear node-average. Together with the\n"
      "Theta(n^{1/2}) class of E7 this brackets the proven gap: no LCL has\n"
      "node-averaged complexity strictly between sqrt(n) and n.\n");
}

}  // namespace lcl::bench

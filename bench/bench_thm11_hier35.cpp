// E2 — Theorem 11 (and Corollary 10): k-hierarchical 3.5-coloring has
// deterministic node-averaged complexity Theta((log* n)^{1/2^{k-1}}) and
// worst case Theta(log* n).
//
// The virtual-log* knob Lambda stands in for log* n (DESIGN.md
// Substitution 1): instances are Definition-18 lower-bound graphs with
// ell_i = t^{2^{i-1}}, t = Lambda^{1/2^{k-1}}; the generic algorithm runs
// with the matching gammas and its level-k 3-coloring costs ~Lambda
// rounds. The fitted exponent of node-average vs Lambda is compared to
// the paper's 1/2^{k-1}. A baseline row reproduces the prior-work
// Theta(n^{1/(2k-1)}) for the 2.5 variant (BBK+23b), fit against n.
#include <cstdio>

#include "algo/generic_hier.hpp"
#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "graph/builders.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

core::MeasuredRun run_35(int k, std::int64_t lambda, std::int64_t target_n,
                         std::uint64_t seed) {
  // ell_i = gamma_i exactly: level-i paths sit right at the Decline
  // threshold, the regime of the Definition-18 lower bound.
  std::vector<std::int64_t> ell = algo::gammas_for_35(lambda, k);
  std::int64_t prod = 1;
  for (auto l : ell) prod *= l;
  ell.push_back(std::max<std::int64_t>(2, target_n / prod));

  auto inst = graph::make_hierarchical_lower_bound(ell);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);

  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("gammas", algo::gammas_for_35(lambda, k));
  cfg.set("symmetry_pad", lambda);
  const auto run =
      algo::run_registered(algo::solver("generic_hier_35"), inst.tree, cfg);
  return core::measure_run(static_cast<double>(lambda), run.stats,
                           run.verdict);
}

core::MeasuredRun run_25(int k, std::int64_t target_n, std::uint64_t seed) {
  // ell_i = gamma_i exactly (see run_35); gammas derive from target_n so
  // rounding cannot flip the Decline/color regime across the sweep.
  std::vector<std::int64_t> ell = algo::gammas_for_25(target_n, k);
  std::int64_t prod = 1;
  for (auto l : ell) prod *= l;
  ell.push_back(std::max<std::int64_t>(2, target_n / prod));

  auto inst = graph::make_hierarchical_lower_bound(ell);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);

  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("gammas", algo::gammas_for_25(target_n, k));
  const auto run =
      algo::run_registered(algo::solver("generic_hier_25"), inst.tree, cfg);
  return core::measure_run(static_cast<double>(inst.tree.size()),
                           run.stats, run.verdict);
}

}  // namespace

namespace lcl::bench {

void run_thm11_hier35(ScenarioContext& ctx) {
  std::printf("== E2: Theorem 11 — k-hierarchical 3.5-coloring ==\n\n");
  const std::int64_t target_n = ctx.scaled(60000);
  for (int k : {2, 3}) {
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t lambda : {64, 192, 576, 1728, 5184}) {
      core::BatchJob job;
      job.scale = static_cast<double>(lambda);
      job.seed = static_cast<std::uint64_t>(11 * k + lambda);
      job.run = [k, lambda, target_n](std::uint64_t seed) {
        return run_35(k, lambda, target_n, seed);
      };
      jobs.push_back(std::move(job));
    }
    auto runs = ctx.run_sweep(std::move(jobs));
    const double predicted = 1.0 / (1 << (k - 1));
    char title[128];
    std::snprintf(title, sizeof(title),
                  "3.5-coloring, k=%d: node-avg ~ Lambda^{1/2^{k-1}}", k);
    ctx.report(title, "Lambda", predicted, predicted, std::move(runs));
  }

  std::printf("Baseline (prior work, BBK+23b): 2.5-coloring "
              "Theta(n^{1/(2k-1)})\n\n");
  for (int k : {2, 3}) {
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t base : {20000, 60000, 180000, 540000}) {
      const std::int64_t n = ctx.scaled(base);
      core::BatchJob job;
      job.scale = static_cast<double>(n);
      job.seed = static_cast<std::uint64_t>(5 * k + n);
      job.run = [k, n](std::uint64_t seed) { return run_25(k, n, seed); };
      jobs.push_back(std::move(job));
    }
    auto runs = ctx.run_sweep(std::move(jobs));
    const double predicted = 1.0 / (2 * k - 1);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "2.5-coloring, k=%d: node-avg ~ n^{1/(2k-1)}", k);
    ctx.report(title, "n", predicted, predicted, std::move(runs));
  }
}

}  // namespace lcl::bench

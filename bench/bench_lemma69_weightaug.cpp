// E7 — Lemma 69 (Section 10): k-hierarchical weight-augmented
// 2.5-coloring has node-averaged complexity Theta(n^{1/k}) — the
// efficiency-1 weight gadget reaches the worst-case exponent, closing
// the Theta(sqrt n) endpoint that Pi^{2.5} can only approach.
#include <cmath>
#include <cstdio>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "graph/builders.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

core::MeasuredRun run_one(int k, std::int64_t target_n,
                          std::uint64_t seed) {
  const double l = std::pow(static_cast<double>(target_n),
                            1.0 / static_cast<double>(k));
  std::vector<std::int64_t> ell(
      static_cast<std::size_t>(k),
      std::max<std::int64_t>(2, std::llround(l)));
  auto inst = graph::make_weighted_construction(ell, 5);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);

  // The orientation map the checker needs stays solver-side; the spec's
  // certify recovers it from the program, so the registry path needs no
  // out-parameter plumbing.
  algo::SolverConfig cfg;
  cfg.set("k", k);
  const auto run =
      algo::run_registered(algo::solver("weight_aug"), inst.tree, cfg);
  return core::measure_run(static_cast<double>(inst.tree.size()),
                           run.stats, run.verdict);
}

}  // namespace

namespace lcl::bench {

void run_lemma69_weightaug(ScenarioContext& ctx) {
  std::printf("== E7: Lemma 69 — weight-augmented 2.5-coloring is "
              "Theta(n^{1/k}) ==\n\n");
  for (int k : {2, 3}) {
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t base : {8000, 32000, 128000, 512000}) {
      const std::int64_t n = ctx.scaled(base);
      core::BatchJob job;
      job.scale = static_cast<double>(n);
      job.seed = static_cast<std::uint64_t>(n + k);
      job.run = [k, n](std::uint64_t seed) { return run_one(k, n, seed); };
      jobs.push_back(std::move(job));
    }
    auto runs = ctx.run_sweep(std::move(jobs));
    const double predicted = 1.0 / k;
    char title[128];
    std::snprintf(title, sizeof(title),
                  "weight-augmented 2.5-coloring, k=%d: node-avg ~ "
                  "n^{1/k}",
                  k);
    ctx.report(title, "n", predicted, predicted, std::move(runs));
  }
}

}  // namespace lcl::bench

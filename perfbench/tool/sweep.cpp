// `lclperf sweep`: the traced replay of an `lclbench --run
// solver_matrix` sweep.
//
// Cells, sizes and seeds follow bench/bench_solver_matrix.cpp and
// ScenarioContext::run_sweep exactly (reps 1): the cell seed is
// stable_name_seed(solver@family) + n, with --seed mixed in, so every
// run reproduces lclbench's instance and its per-run results must match
// the snapshot. Each run is run_stages (stages.hpp) under one `cell`
// root span.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "stages.hpp"

namespace perfbench {
namespace {

// The --seed mix of ScenarioContext::run_sweep for repetition 0.
constexpr std::uint64_t kSeedMix = 0xd1b54a32d192ed03ULL;

std::int64_t scaled(std::int64_t base, double scale, std::int64_t floor) {
  return std::max<std::int64_t>(
      floor, static_cast<std::int64_t>(
                 std::llround(static_cast<double>(base) * scale)));
}

}  // namespace

int run_sweep(const Args& args) {
  const std::vector<std::string> algos = split_csv(args.get("algos"));
  const std::vector<std::string> families = split_csv(args.get("families"));
  const double scale = std::stod(args.get("n"));
  const std::uint64_t seed = std::stoull(args.get("seed"));
  const std::string spans_path = args.get("spans", "");

  Recorder rec;
  const auto start = Clock::now();
  std::printf("{\"runs\":[");
  bool first = true;
  std::int64_t run_id = 0;
  for (const std::string& algo_name : algos) {
    const lcl::algo::SolverSpec& spec = lcl::algo::solver(algo_name);
    lcl::algo::SolverConfig base;
    base.validate(spec);
    for (const std::string& family : families) {
      const lcl::graph::Family* fam = lcl::graph::find_family(family);
      if (fam == nullptr || !spec.compatible(*fam)) continue;
      const std::uint64_t cell_seed =
          lcl::core::stable_name_seed(algo_name + "@" + family);
      for (const std::int64_t base_n : {2500, 10000}) {
        const auto n =
            static_cast<lcl::graph::NodeId>(scaled(base_n, scale, 8));
        const std::uint64_t s =
            cell_seed + static_cast<std::uint64_t>(n) + seed * kSeedMix;
        const std::int64_t max_rounds = 8 * static_cast<std::int64_t>(n) + 4096;
        lcl::algo::SolverConfig config = base;
        config.seed = s;

        StageRun run;
        {
          Scoped cell(rec, "cell", -1, run_id);
          run = run_stages(rec, cell.index(), run_id, spec, config, family, n,
                           s, 0, max_rounds);
        }
        const lcl::core::MeasuredRun r =
            lcl::core::measure_run(static_cast<double>(n), run.stats,
                                   run.verdict);
        std::printf(
            "%s\n{\"solver\":\"%s\",\"family\":\"%s\",\"n\":%lld,"
            "\"status\":\"%s\",\"node_averaged\":%.17g,\"worst_case\":%lld,"
            "\"term_p50\":%lld,\"term_p90\":%lld,\"term_p99\":%lld,"
            "\"rounds\":%lld,\"node_rounds\":%lld,\"alloc_events\":%lld,"
            "\"graph.build_ms\":%.6f,\"algo.prepare_ms\":%.6f,"
            "\"algo.factory_ms\":%.6f,\"local.engine_ms\":%.6f,"
            "\"problems.certify_ms\":%.6f}",
            first ? "" : ",", algo_name.c_str(), family.c_str(),
            static_cast<long long>(r.n), lcl::core::to_string(r.status),
            r.node_averaged, static_cast<long long>(r.worst_case),
            static_cast<long long>(r.term.p50),
            static_cast<long long>(r.term.p90),
            static_cast<long long>(r.term.p99),
            static_cast<long long>(run.stats.rounds),
            static_cast<long long>(run.stats.total_rounds),
            static_cast<long long>(run.alloc_events), run.ms[0], run.ms[1],
            run.ms[2], run.ms[3], run.ms[4]);
        first = false;
        ++run_id;
      }
    }
  }
  std::printf("\n],\"wall_ms\":%.6f,", ms_between(start, Clock::now()));
  rec.print_self_ms();
  std::printf("}\n");
  rec.write(spans_path);
  return 0;
}

}  // namespace perfbench

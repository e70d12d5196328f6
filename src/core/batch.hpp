// Batched multi-threaded experiment execution.
//
// A landscape sweep is a set of independent runs: build an instance, run a
// `Program` on the `Engine`, verify the output with a checker, record a
// `MeasuredRun`. Runs share nothing (each job owns its tree and engine), so
// a sweep is embarrassingly parallel. `BatchRunner` executes a vector of
// jobs across a persistent `std::thread` pool and aggregates the samples in
// *job order*: `run_all(jobs)[i]` always corresponds to `jobs[i]`, and every
// job carries its own deterministic seed, so results are bit-identical for
// any thread count (including 1).
//
// Instance construction inside jobs goes through each worker thread's
// reusable `graph::TreeBuilder` arena (`graph::tls_build_arena()`): every
// `graph::make_*` builder and the family registry route through it, so a
// sweep of thousands of jobs reallocates no adjacency scaffolding after
// the first build on each worker — only the emitted Trees' exact-size CSR
// arrays are allocated per run, and the engine itself snapshots nothing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "graph/tree.hpp"

namespace lcl::core {

/// One unit of work: a closure from a deterministic seed to a verified
/// measurement. Jobs must be self-contained (no shared mutable state); the
/// runner may execute them on any thread in any order.
struct BatchJob {
  double scale = 0.0;  ///< the sweep variable, copied into the result
  std::uint64_t seed = 0;
  std::function<MeasuredRun(std::uint64_t seed)> run;
};

/// Dry-builds the named registry family (graph/families.hpp) at 8 nodes,
/// so an unknown name or a degree bound the family cannot honour throws
/// `std::invalid_argument` up front instead of failing every run.
/// `delta` == 0 uses the family's default degree bound. The families'
/// parameter checks do not depend on n, so the probe rejects the same
/// (family, delta) pairs, with the same messages, as a full-size build.
[[nodiscard]] graph::Tree probe_family(const std::string& family,
                                       int delta);

/// One certified registered-solver cell, the measurement every sweep
/// point and every lcld solve is made of: builds the family instance at
/// `n` with `seed` and applies the solver's declared input needs
/// (`algo::prepare_instance`), both timed into `build_ms`; then runs
/// `algo::run_registered` with `config.seed = seed` and fills the
/// `MeasuredRun` through `core::measure_run`. A throwing build yields
/// `kBuildFailed`; a run that hits `max_rounds` yields `kTruncated` with
/// censored partial stats (certify is skipped); a rejected output yields
/// `kCheckFailed`. Exceptions from the factory, the engine or certify
/// propagate to the caller.
[[nodiscard]] MeasuredRun run_solver_cell(
    const algo::SolverSpec& spec, algo::SolverConfig config,
    const std::string& family, graph::NodeId n, int delta,
    std::uint64_t seed, double scale,
    std::int64_t max_rounds = std::numeric_limits<int>::max());

/// The `kException` record of a run that threw: `what` is the
/// exception's message, nullptr for a non-std exception.
[[nodiscard]] MeasuredRun threw_run(double scale, const char* what);

/// The registry-driven sweep job: validates both registry axes eagerly
/// (unknown solver, out-of-range option, unknown or unsatisfiable
/// family, and the factory's relational option checks on a probe
/// instance), so misconfigured sweeps fail at construction instead of
/// on a worker thread; the job then runs `run_solver_cell` with its
/// seed.
[[nodiscard]] BatchJob make_solver_job(
    double scale, std::uint64_t seed, std::string solver,
    algo::SolverConfig config, std::string family, graph::NodeId n,
    int delta, std::int64_t max_rounds = std::numeric_limits<int>::max());

struct BatchOptions {
  /// Worker count; 0 means `std::thread::hardware_concurrency()`.
  int threads = 0;
};

/// A persistent thread pool executing batches of jobs. Construction spawns
/// the workers; they idle between batches and are joined on destruction.
class BatchRunner {
 public:
  explicit BatchRunner(const BatchOptions& opts = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Number of worker threads in the pool.
  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Executes all jobs and returns their measurements in job order. A job
  /// whose closure throws yields a `MeasuredRun` with
  /// `status == RunStatus::kException` and the exception message in
  /// `check_reason` (the batch still completes). Blocks until every job
  /// has finished.
  std::vector<MeasuredRun> run_all(const std::vector<BatchJob>& jobs);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals workers: batch available
  std::condition_variable done_cv_;  ///< signals run_all: batch finished
  const std::vector<BatchJob>* jobs_ = nullptr;  // guarded by mu_
  std::vector<MeasuredRun>* results_ = nullptr;  // guarded by mu_
  std::size_t next_job_ = 0;                     // guarded by mu_
  std::size_t pending_ = 0;                      // guarded by mu_
  bool shutdown_ = false;                        // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Convenience wrapper: run a full batch on a transient pool.
[[nodiscard]] std::vector<MeasuredRun> run_batch(
    const std::vector<BatchJob>& jobs, int threads = 0);

}  // namespace lcl::core

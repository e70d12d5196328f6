// `lclperf service`: the traced in-process replay of an lcld request
// trace, layer by layer.
//
// The daemon itself is never instrumented; these passes call the public
// functions of src/service, src/problems and the solve stages on the
// same request lines the socket client sent, with a span around every
// call:
//
//   1. handle    Server::handle_line per line (after the hot-set warm-up
//                the socket daemon also got): service.handle per type
//   2. parse     service::parse_request per line: service.parse
//   3. cache     ProblemCache::get_or_compute per classify line on a
//                warmed cache: service.cache_lookup on a hit,
//                problems.classify on a miss
//   4. solve     the five stages of a solve on the same cell the daemon
//                ran (graph.build, algo.prepare, algo.factory,
//                local.engine, problems.certify); handle minus their sum
//                is the solve overhead (admission, the pool hop, render)
//   5. submit    Server::submit at the trace's due times, over the
//                first kSubmitSeconds of the schedule; ready minus
//                submit minus the line's handle time is its queue wait
//
// Per-request rows go to --out; a JSON summary goes to stdout.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/bw_generic.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "stages.hpp"

namespace perfbench {
namespace {

// Seconds of the schedule the real-time submit pass replays.
constexpr std::int64_t kSubmitSeconds = 8;

struct Row {
  Kind kind = Kind::kOther;
  double handle_ms = 0.0;
  double parse_ms = 0.0;
  int lookup = 0;  ///< 1 hit, 2 miss, 0 not a classify
  double lookup_ms = 0.0;
  double stages_ms = 0.0;  ///< solves: sum of the five stage calls
  double submit_latency_ms = -1.0;  ///< ready - submit, in process
  double queue_wait_ms = -1.0;
};

struct SolveStages {
  std::string solver;
  StageRun run;
  [[nodiscard]] bool certified() const {
    return !run.stats.truncated && run.verdict.ok;
  }
};

// Mirrors Server::run_solve: config from the request, the cached
// canonical table for bw_generic, the job seed as instance seed.
SolveStages replay_solve(Recorder& rec, int parent, std::int64_t id,
                         const lcl::service::Request& req,
                         lcl::service::ProblemCache& cache) {
  SolveStages out;
  out.solver = req.solver;
  lcl::algo::SolverSpec spec = lcl::algo::solver(req.solver);
  if (spec.name == "bw_generic") {
    const lcl::problems::BwTable table =
        cache.get_or_compute(lcl::service::request_table(req))->canonical;
    spec.factory = [table](const lcl::graph::Tree& tree,
                           const lcl::algo::SolverConfig&)
        -> std::unique_ptr<lcl::local::Program> {
      return std::make_unique<lcl::algo::BwGenericProgram>(tree, table);
    };
  }
  lcl::algo::SolverConfig config;
  config.seed = req.seed;
  config.validate(spec);
  const auto n = static_cast<lcl::graph::NodeId>(req.n);
  const std::int64_t max_rounds =
      req.max_rounds > 0 ? req.max_rounds : 8 * req.n + 4096;

  Scoped root(rec, "solve", parent, id);
  out.run = run_stages(rec, root.index(), id, spec, config, req.family, n,
                       req.seed, static_cast<int>(req.delta), max_rounds);
  return out;
}

}  // namespace

int run_service(const Args& args) {
  const std::vector<TraceLine> warm = read_trace(args.get("warm"));
  const std::vector<TraceLine> trace = read_trace(args.get("trace"));
  const int threads = std::stoi(args.get("threads"));
  const std::string out_path = args.get("out");
  const std::string spans_path = args.get("spans", "");
  const std::size_t n = trace.size();
  // The submit pass replays only the lines due in the first
  // kSubmitSeconds of the schedule: it runs in real time.
  std::size_t submit_n = 0;
  while (submit_n < n && trace[submit_n].due_ns < kSubmitSeconds * 1'000'000'000LL) {
    ++submit_n;
  }
  std::vector<Row> rows(n);
  std::vector<SolveStages> solves;

  Recorder rec;
  const auto start = Clock::now();
  lcl::service::ServerOptions opts;
  opts.threads = threads;

  // 1. handle_line per line, on a server warmed like the daemon.
  {
    Scoped pass(rec, "pass.handle", -1, -1);
    lcl::service::Server server(opts);
    for (const TraceLine& w : warm) (void)server.handle_line(w.line);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i].kind = kind_of(trace[i].line);
      rows[i].handle_ms =
          timed(rec, "service.handle", pass.index(),
                static_cast<std::int64_t>(i),
                [&] { (void)server.handle_line(trace[i].line); });
    }
  }

  // 2. parse_request per line.
  std::vector<lcl::service::Request> reqs(n);
  {
    Scoped pass(rec, "pass.parse", -1, -1);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i].parse_ms = timed(
          rec, "service.parse", pass.index(), static_cast<std::int64_t>(i),
          [&] { reqs[i] = lcl::service::parse_request(trace[i].line); });
    }
  }

  // 3. get_or_compute per classify line, on a cache warmed with the
  //    hot set; the miss counter tells a hit from a miss.
  lcl::service::ProblemCache cache(opts.cache_bytes, opts.cache_shards);
  {
    Scoped pass(rec, "pass.cache", -1, -1);
    for (const TraceLine& w : warm) {
      (void)cache.get_or_compute(
          lcl::service::request_table(lcl::service::parse_request(w.line)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (rows[i].kind != Kind::kClassify) continue;
      const lcl::problems::BwTable table =
          lcl::service::request_table(reqs[i]);
      const std::uint64_t misses_before = cache.stats().misses;
      const int span = rec.begin("cache", pass.index(),
                                 static_cast<std::int64_t>(i));
      (void)cache.get_or_compute(table);
      rec.end(span);
      rows[i].lookup_ms = rec.duration_ms(span);
      rows[i].lookup = cache.stats().misses == misses_before ? 1 : 2;
      rec.rename(span, rows[i].lookup == 1 ? "service.cache_lookup"
                                           : "problems.classify");
    }
  }

  // 4. The five solve stages per solve line.
  {
    Scoped pass(rec, "pass.solve", -1, -1);
    for (std::size_t i = 0; i < n; ++i) {
      if (rows[i].kind != Kind::kSolve) continue;
      solves.push_back(replay_solve(rec, pass.index(),
                                    static_cast<std::int64_t>(i), reqs[i],
                                    cache));
      double sum = 0.0;
      for (const double ms : solves.back().run.ms) sum += ms;
      rows[i].stages_ms = sum;
    }
  }

  // 5. submit at the due times; the completion hook stamps readiness.
  {
    Scoped pass(rec, "pass.submit", -1, -1);
    std::vector<std::int64_t> submitted(n, 0);
    std::vector<std::int64_t> ready(n, 0);
    std::atomic<std::size_t> done{0};
    // Declared after what its completion hooks touch, so it drains and
    // joins its workers before those are destroyed.
    lcl::service::Server server(opts);
    for (const TraceLine& w : warm) (void)server.handle_line(w.line);
    const Clock::time_point origin = Clock::now();
    auto ns_now = [origin] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin)
          .count();
    };
    for (std::size_t i = 0; i < submit_n; ++i) {
      std::this_thread::sleep_until(origin +
                                    std::chrono::nanoseconds(trace[i].due_ns));
      submitted[i] = ns_now();
      (void)server.submit(trace[i].line, [&ready, &done, ns_now, i] {
        ready[i] = ns_now();
        done.fetch_add(1, std::memory_order_release);
      });
    }
    while (done.load(std::memory_order_acquire) < submit_n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::size_t i = 0; i < submit_n; ++i) {
      rows[i].submit_latency_ms =
          static_cast<double>(ready[i] - submitted[i]) / 1e6;
      rows[i].queue_wait_ms = rows[i].submit_latency_ms - rows[i].handle_ms;
    }
  }
  const double wall_ms = ms_between(start, Clock::now());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + out_path);
  for (std::size_t i = 0; i < n; ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "%zu\t%s\t%.6f\t%.6f\t%d\t%.6f\t%.6f\t%.6f\t%.6f\n", i,
                 kind_name(r.kind), r.handle_ms, r.parse_ms, r.lookup,
                 r.lookup_ms, r.stages_ms, r.submit_latency_ms,
                 r.queue_wait_ms);
  }
  std::fclose(f);

  std::printf("{\"wall_ms\":%.6f,\"solves\":[", wall_ms);
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const SolveStages& s = solves[i];
    std::printf("%s\n{\"solver\":\"%s\",\"certified\":%s,\"rounds\":%lld,"
                "\"node_rounds\":%lld,\"alloc_events\":%lld",
                i == 0 ? "" : ",", s.solver.c_str(),
                s.certified() ? "true" : "false",
                static_cast<long long>(s.run.stats.rounds),
                static_cast<long long>(s.run.stats.total_rounds),
                static_cast<long long>(s.run.alloc_events));
    for (int k = 0; k < 5; ++k) {
      std::printf(",\"%s_ms\":%.6f", kStageNames[k], s.run.ms[k]);
    }
    std::printf("}");
  }
  std::printf("\n],");
  rec.print_self_ms();
  std::printf("}\n");
  rec.write(spans_path);
  return 0;
}

}  // namespace perfbench

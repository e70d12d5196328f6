// lclperf — the benchmark's compiled half. Subcommands:
//
//   sweep     replay solver_matrix cells through the public stage
//             functions with a span around each call (traced run)
//   service   replay an lcld request trace in process: handle_line,
//             parse, cache, the five solve stages, and submit at the
//             trace's schedule (traced run)
//   loadgen   send a request trace to a running lcld over TCP, open
//             loop at the trace's due times or as a windowed burst, and
//             check every reply
//   calibrate spin a fixed amount of integer work on K threads and
//             print the wall seconds (host calibration)
//   reference run a fixed graph kernel and print its seconds: the
//             host's speed at that moment, taken before every
//             measured pass
//
// Every subcommand prints one JSON document on stdout; perfbench/run.py
// turns those into the benchmark's metrics.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace perfbench {

std::vector<TraceLine> read_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<TraceLine> out;
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    const std::size_t t1 = row.find('\t');
    const std::size_t t2 = t1 == std::string::npos ? t1 : row.find('\t', t1 + 1);
    if (t2 == std::string::npos) {
      throw std::runtime_error("malformed trace row in " + path);
    }
    TraceLine tl;
    tl.due_ns = std::stoll(row.substr(0, t1));
    tl.conn = std::stoi(row.substr(t1 + 1, t2 - t1 - 1));
    tl.line = row.substr(t2 + 1);
    out.push_back(std::move(tl));
  }
  return out;
}

namespace {

// Spin iterations per thread: about 0.3 s on one uncontended core.
constexpr long long kSpinIters = 100'000'000;

int run_calibrate(const Args& args) {
  const int threads = std::stoi(args.get("threads"));
  constexpr long long iters = kSpinIters;
  std::atomic<unsigned long long> sink{0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      unsigned long long x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(t);
      for (long long i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink += x;
    });
  }
  for (std::thread& th : pool) th.join();
  std::printf("{\"threads\":%d,\"seconds\":%.6f,\"sink\":%llu}\n", threads,
              ms_between(start, Clock::now()) / 1000.0, sink.load());
  return 0;
}

// A random recursive tree (each node attaches to a uniform earlier
// node), stored as CSR, and rounds of synchronous label propagation over
// it: the scattered reads of the engine's rounds, in code that never
// changes with the library.
int run_reference() {
  constexpr int kNodes = 100'000;
  constexpr int kRounds = 30;
  std::uint64_t x = 88172645463325252ULL;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<int> parent(kNodes, 0);
  std::vector<int> offset(kNodes + 1, 0);
  for (int v = 1; v < kNodes; ++v) {
    parent[v] = static_cast<int>(rnd() % static_cast<std::uint64_t>(v));
    ++offset[v + 1];
    ++offset[parent[v] + 1];
  }
  for (int v = 0; v < kNodes; ++v) offset[v + 1] += offset[v];
  std::vector<int> adj(static_cast<std::size_t>(offset[kNodes]));
  std::vector<int> fill(offset.begin(), offset.end() - 1);
  for (int v = 1; v < kNodes; ++v) {
    adj[fill[v]++] = parent[v];
    adj[fill[parent[v]]++] = v;
  }
  std::vector<std::uint32_t> cur(kNodes);
  std::vector<std::uint32_t> next(kNodes);
  for (std::uint32_t& label : cur) label = static_cast<std::uint32_t>(rnd());
  const auto start = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (int v = 0; v < kNodes; ++v) {
      std::uint32_t h = cur[v];
      for (int e = offset[v]; e < offset[v + 1]; ++e) {
        h = (h * 2654435761U) ^ cur[adj[e]];
        if (h & 1U) h += 7;
      }
      next[v] = h;
    }
    cur.swap(next);
  }
  std::printf("{\"seconds\":%.9f,\"sink\":%u}\n",
              ms_between(start, Clock::now()) / 1000.0, cur[kNodes / 2]);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lclperf sweep|service|loadgen|calibrate|reference "
                 "[--key value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (cmd == "sweep") return perfbench::run_sweep(args);
    if (cmd == "service") return perfbench::run_service(args);
    if (cmd == "loadgen") return perfbench::run_loadgen(args);
    if (cmd == "calibrate") return perfbench::run_calibrate(args);
    if (cmd == "reference") return perfbench::run_reference();
    std::fprintf(stderr, "lclperf: unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lclperf %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

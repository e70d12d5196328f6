// lcld — the classification-as-a-service daemon.
//
// Serves the line-delimited JSON protocol of src/service/ in one of
// three transports:
//
//   * --stdio (default): one request per stdin line, one response per
//     stdout line, in order. This is the pipe mode CI and the tests
//     drive (`lcld --stdio < requests.jsonl > responses.jsonl`); EOF
//     drains and exits 0.
//   * --socket PATH: a Unix stream socket.
//   * --tcp HOST:PORT: a TCP listener (PORT 0 = ephemeral; the resolved
//     endpoint is announced on stderr as `tcp://HOST:PORT`).
//
// The socket transports share one poll-based connection supervisor
// (service/transport.*): up to --max-conns concurrent connections, each
// with line framing, a --pipeline-deep in-flight request window through
// the server's bounded admission queue (responses in request order),
// and a bounded per-connection write backlog — a client that stops
// reading stalls only its own connection. SIGTERM/SIGINT trigger a
// graceful drain: stop accepting input, finish everything queued and
// in flight, exit 0.
#include <charconv>
#include <cmath>
#include <csignal>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "service/server.hpp"
#include "service/transport.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--stdio | --socket PATH | --tcp HOST:PORT] [options]\n"
      << "  --stdio           serve stdin/stdout, one JSON line each way"
         " (default)\n"
      << "  --socket PATH     serve a Unix stream socket at PATH\n"
      << "  --tcp HOST:PORT   serve a TCP listener (PORT 0 ="
         " ephemeral)\n"
      << "  --max-conns N     concurrent connection cap, 1..65536"
         " (default 256)\n"
      << "  --pipeline N      per-connection in-flight request window,"
         " 1..65536 (default 32)\n"
      << "  --cache-mb N      problem-cache byte budget in MiB,"
         " 0..1048576 (default 64)\n"
      << "  --threads N       workers, 1..256; each runs its requests,"
         " solves included (default 1)\n"
      << "  --max-queue N     admission queue depth, 1..1048576"
         " (default 256)\n"
      << "  --timeout-ms X    per-request queue-age limit;"
         " < 0 disables (default)\n";
  return 2;
}

// Parses all of `text` as a number in [lo, hi] (finite, for doubles);
// on junk, a partial parse or a value out of range, prints a one-line
// error naming the flag and returns false.
template <class T>
bool parse_flag(const std::string& flag, const char* text, T lo, T hi,
                T& out) {
  const std::string_view s(text);
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  bool ok = ec == std::errc() && end == s.data() + s.size() &&
            value >= lo && value <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::cerr << "lcld: " << flag << " expects "
              << (std::is_floating_point_v<T> ? "a number" : "an integer")
              << " in [" << lo << ", " << hi << "], got \"" << text
              << "\"\n";
    return false;
  }
  out = value;
  return true;
}

int run_stdio(lcl::service::Server& server) {
  std::string line;
  while (g_stop == 0 && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << server.handle_line(line) << '\n' << std::flush;
  }
  server.drain();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool stdio = true;
  lcl::service::ServerOptions opts;
  lcl::service::TransportOptions topts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--socket" && has_value) {
      stdio = false;
      topts.unix_path = argv[++i];
      topts.tcp_host.clear();
    } else if (arg == "--tcp" && has_value) {
      stdio = false;
      topts.unix_path.clear();
      if (!lcl::service::parse_hostport(argv[++i], topts.tcp_host,
                                        topts.tcp_port)) {
        std::cerr << "lcld: --tcp expects HOST:PORT, got \"" << argv[i]
                  << "\"\n";
        return 2;
      }
    } else if (arg == "--max-conns" && has_value) {
      if (!parse_flag(arg, argv[++i], 1, 1 << 16, topts.max_conns)) return 2;
    } else if (arg == "--pipeline" && has_value) {
      if (!parse_flag(arg, argv[++i], 1, 1 << 16, topts.pipeline_depth)) {
        return 2;
      }
    } else if (arg == "--cache-mb" && has_value) {
      std::size_t mb = 0;
      if (!parse_flag<std::size_t>(arg, argv[++i], 0, 1 << 20, mb)) return 2;
      opts.cache_bytes = mb << 20;
    } else if (arg == "--threads" && has_value) {
      // Checked here, before the server starts any worker.
      if (!parse_flag(arg, argv[++i], 1, 256, opts.threads)) return 2;
    } else if (arg == "--max-queue" && has_value) {
      if (!parse_flag(arg, argv[++i], 1, 1 << 20, opts.max_queue)) return 2;
    } else if (arg == "--timeout-ms" && has_value) {
      if (!parse_flag(arg, argv[++i], -1e12, 1e12, opts.timeout_ms)) {
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
#ifdef SIGPIPE
  // Belt and braces: the transport writes with MSG_NOSIGNAL, but
  // nothing else in the process should die to a dropped peer either.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  try {
    lcl::service::Server server(opts);
    if (stdio) return run_stdio(server);
    lcl::service::Transport transport(server, topts);
    transport.listen_now();
    std::cerr << "lcld: listening on " << transport.endpoint() << "\n";
    const int rc = transport.run(&g_stop);
    server.drain();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "lcld: " << e.what() << "\n";
    return 1;
  }
}

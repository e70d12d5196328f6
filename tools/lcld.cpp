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
#include <csignal>
#include <iostream>
#include <string>

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
      << "  --max-conns N     concurrent connection cap (default 256)\n"
      << "  --pipeline N      per-connection in-flight request window"
         " (default 32)\n"
      << "  --cache-mb N      problem-cache byte budget in MiB"
         " (default 64)\n"
      << "  --threads N       workers; each runs its requests, solves"
         " included (default 1)\n"
      << "  --max-queue N     admission queue depth (default 256)\n"
      << "  --timeout-ms X    per-request queue-age limit;"
         " < 0 disables (default)\n";
  return 2;
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
      topts.max_conns = std::stoi(argv[++i]);
    } else if (arg == "--pipeline" && has_value) {
      topts.pipeline_depth = std::stoi(argv[++i]);
    } else if (arg == "--cache-mb" && has_value) {
      opts.cache_bytes =
          static_cast<std::size_t>(std::stoll(argv[++i])) << 20;
    } else if (arg == "--threads" && has_value) {
      opts.threads = std::stoi(argv[++i]);
    } else if (arg == "--max-queue" && has_value) {
      opts.max_queue = std::stoi(argv[++i]);
    } else if (arg == "--timeout-ms" && has_value) {
      opts.timeout_ms = std::stod(argv[++i]);
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

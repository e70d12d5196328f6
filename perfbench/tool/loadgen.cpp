// `lclperf loadgen`: the client side of the lcld_mixed workload.
//
// Sends the rows of a generated trace to a running `lcld --tcp` over one
// connection per trace `conn` value, from a single thread:
//
//   --mode open   each request is written when its due time arrives
//                 (open loop: a stalled daemon does not slow the
//                 schedule, so its backlog shows as latency), and its
//                 latency is timed from the due time, not the send time;
//   --mode burst  requests are written as fast as the replies allow,
//                 with at most kWindow requests in flight per
//                 connection (the batch-client view).
//
// Replies arrive in request order per connection. After the run every
// reply is checked: exactly one line per request, carrying the request's
// id; classify replies byte-identical to an in-process
// Server::handle_line reference; solve replies ok and certified.
//
// Output: one row per request in --out (`idx kind due_ns sent_ns
// recv_ns ok`, recv_ns -1 when no reply came) and a JSON summary on
// stdout.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "service/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Burst requests in flight per connection: lcld's default --pipeline.
constexpr std::size_t kWindow = 32;
// A reply not received this long after its request was due is missing.
constexpr std::int64_t kReplyTimeoutNs = 60'000'000'000;

struct Conn {
  int fd = -1;
  std::string out;            ///< bytes not yet written
  std::deque<std::pair<std::size_t, std::size_t>> unsent;  ///< (end, idx)
  std::size_t written = 0;    ///< total bytes written so far
  std::size_t queued = 0;     ///< total bytes queued so far
  std::deque<std::size_t> waiting;  ///< requests sent, reply pending
  std::string in;             ///< partial reply line
};

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::string request_id_prefix(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string::npos) return "{";
  std::size_t end = at + 5;
  while (end < line.size() && (line[end] == '-' || std::isdigit(
                                   static_cast<unsigned char>(line[end])))) {
    ++end;
  }
  std::string prefix = "{";
  prefix.append(line, at, end - at);
  prefix += ',';
  return prefix;
}

}  // namespace

int run_loadgen(const Args& args) {
  const int port = std::stoi(args.get("port"));
  const std::vector<TraceLine> trace = read_trace(args.get("trace"));
  const bool burst = args.get("mode") == "burst";
  const std::string out_path = args.get("out");
  std::signal(SIGPIPE, SIG_IGN);
  // The default 50 us timer slack would make every open-loop send late
  // by about that much; latency is timed from the due time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  int conns = 1;
  for (const TraceLine& t : trace) conns = std::max(conns, t.conn + 1);
  std::vector<Conn> cs(static_cast<std::size_t>(conns));
  for (Conn& c : cs) c.fd = connect_local(port);

  const std::size_t n = trace.size();
  std::vector<std::int64_t> sent(n, -1);
  std::vector<std::int64_t> recv(n, -1);
  std::vector<std::string> reply(n);
  std::size_t unexpected = 0;
  std::size_t received = 0;
  std::size_t next = 0;
  bool io_error = false;

  const Clock::time_point origin = Clock::now();
  const std::int64_t last_due = n == 0 ? 0 : trace.back().due_ns;
  const std::int64_t deadline_ns = (burst ? 0 : last_due) + kReplyTimeoutNs;

  std::vector<pollfd> pfds(cs.size());
  char buf[1 << 16];
  while (received < n && !io_error) {
    std::int64_t now = ns_since(origin);
    if (now > deadline_ns) break;
    // Dispatch everything that is due (open) or fits the window (burst).
    while (next < n) {
      Conn& c = cs[static_cast<std::size_t>(trace[next].conn)];
      if (burst ? c.waiting.size() + c.unsent.size() >= kWindow
                : trace[next].due_ns > now) {
        break;
      }
      c.out += trace[next].line;
      c.out += '\n';
      c.queued += trace[next].line.size() + 1;
      c.unsent.emplace_back(c.queued, next);
      ++next;
    }
    // Write what the sockets take; a request counts as sent once its
    // last byte is in the kernel.
    for (Conn& c : cs) {
      while (!c.out.empty()) {
        const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(),
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          io_error = true;
          break;
        }
        c.out.erase(0, static_cast<std::size_t>(w));
        c.written += static_cast<std::size_t>(w);
      }
      const std::int64_t t = ns_since(origin);
      while (!c.unsent.empty() && c.unsent.front().first <= c.written) {
        sent[c.unsent.front().second] = t;
        c.waiting.push_back(c.unsent.front().second);
        c.unsent.pop_front();
      }
    }
    // Sleep until the next due time or until a socket is ready.
    now = ns_since(origin);
    std::int64_t wait_ns = 50'000'000;
    if (!burst && next < n) {
      wait_ns = std::min(wait_ns, std::max<std::int64_t>(0, trace[next].due_ns - now));
    }
    for (std::size_t i = 0; i < cs.size(); ++i) {
      pfds[i].fd = cs[i].fd;
      pfds[i].events = static_cast<short>(POLLIN | (cs[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = cs[i];
      const ssize_t r = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
        io_error = true;
        break;
      }
      if (r < 0) continue;
      const std::int64_t t = ns_since(origin);
      c.in.append(buf, static_cast<std::size_t>(r));
      std::size_t nl;
      while ((nl = c.in.find('\n')) != std::string::npos) {
        if (c.waiting.empty()) {
          ++unexpected;
        } else {
          const std::size_t idx = c.waiting.front();
          c.waiting.pop_front();
          recv[idx] = t;
          reply[idx] = c.in.substr(0, nl);
          ++received;
        }
        c.in.erase(0, nl + 1);
      }
    }
  }
  const double wall_s = static_cast<double>(ns_since(origin)) / 1e9;
  for (Conn& c : cs) ::close(c.fd);

  // Output check against the in-process reference.
  std::vector<int> ok(n, 0);
  std::size_t failed = 0;
  // The first few failures, request / reply / expected, for the report.
  std::FILE* failures = std::fopen((out_path + ".failures").c_str(), "w");
  if (failures == nullptr) throw std::runtime_error("cannot write " + out_path);
  {
    lcl::service::ServerOptions opts;
    opts.threads = 1;
    lcl::service::Server ref(opts);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& req = trace[i].line;
      const std::string& rep = reply[i];
      bool good = recv[i] >= 0 && rep.rfind(request_id_prefix(req), 0) == 0 &&
                  !rep.empty() && rep.back() == '}';
      std::string expected = "(one well-formed line with the request's id)";
      if (good) {
        switch (kind_of(req)) {
          case Kind::kClassify:
            expected = ref.handle_line(req);
            good = rep == expected;
            break;
          case Kind::kSolve:
            good = rep.find("\"ok\":true") != std::string::npos &&
                   rep.find("\"certified\":true") != std::string::npos;
            break;
          case Kind::kOther:
            good = rep.find("\"ok\":true") != std::string::npos;
            break;
        }
      }
      ok[i] = good ? 1 : 0;
      failed += good ? 0 : 1;
      if (!good && failed <= 5) {
        std::fprintf(failures, "request %zu: %s\nreply: %s\nexpected: %s\n", i,
                     req.c_str(), recv[i] >= 0 ? rep.c_str() : "(none)",
                     expected.c_str());
      }
    }
  }
  std::fclose(failures);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + out_path);
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%d\n", i,
                 kind_name(kind_of(trace[i].line)),
                 static_cast<long long>(trace[i].due_ns),
                 static_cast<long long>(sent[i]),
                 static_cast<long long>(recv[i]), ok[i]);
  }
  std::fclose(f);
  std::printf(
      "{\"requests\":%zu,\"received\":%zu,\"failed\":%zu,\"unexpected\":%zu,"
      "\"io_error\":%s,\"wall_s\":%.9f}\n",
      n, received, failed + unexpected, unexpected, io_error ? "true" : "false",
      wall_s);
  return 0;
}

}  // namespace perfbench

// In-memory span recorder and small helpers shared by lclperf's
// subcommands.
//
// A span is one call into a layer of liblcl, recorded by the benchmark
// around the public function it calls: name, start, end, the span that
// caused it, and the identifier of the cell or request it belongs to.
// Spans stay in memory and are written out once, when the subcommand
// ends, so the recording cost is two clock reads and one vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  int parent = -1;       ///< index of the causing span, -1 for a root
  std::int64_t id = 0;   ///< cell or request the span belongs to
  double start_ms = 0.0;  ///< since the recorder's origin
  double end_ms = 0.0;
};

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  int begin(std::string name, int parent, std::int64_t id) {
    spans_.push_back({std::move(name), parent, id, now_ms(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end_ms = now_ms(); }
  /// Names a span after the fact, for calls whose layer is known only
  /// from their outcome (a cache probe that turned out to be a miss).
  void rename(int span, std::string name) {
    spans_[static_cast<std::size_t>(span)].name = std::move(name);
  }

  [[nodiscard]] double duration_ms(int span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return s.end_ms - s.start_ms;
  }

  /// Self time per span name: a span's duration minus the part its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end_ms - spans_[i].start_ms - child[i];
    }
    return out;
  }

  /// Time covered by root spans; the rest of a subcommand's wall time is
  /// unaccounted for by the trace.
  [[nodiscard]] double root_ms() const {
    double ms = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) ms += s.end_ms - s.start_ms;
    }
    return ms;
  }

  /// Prints `"root_span_ms":R,"self_ms":{name:ms,...}` to stdout.
  void print_self_ms() const {
    std::printf("\"root_span_ms\":%.6f,\"self_ms\":{", root_ms());
    bool first = true;
    for (const auto& [name, ms] : self_ms()) {
      std::printf("%s\"%s\":%.6f", first ? "" : ",", name.c_str(), ms);
      first = false;
    }
    std::printf("}");
  }

  /// Writes one JSON object per span, one per line.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"parent\":%d,\"id\":%lld,"
                   "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                   i, s.name.c_str(), s.parent, static_cast<long long>(s.id),
                   s.start_ms, s.end_ms);
    }
    std::fclose(f);
  }

 private:
  [[nodiscard]] double now_ms() const { return ms_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Ends a span when the scope closes, exception paths included.
class Scoped {
 public:
  Scoped(Recorder& rec, std::string name, int parent, std::int64_t id)
      : rec_(rec), span_(rec.begin(std::move(name), parent, id)) {}
  ~Scoped() { rec_.end(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int index() const { return span_; }

 private:
  Recorder& rec_;
  int span_;
};

/// Runs `fn` inside a span and returns the span's duration in ms.
template <class Fn>
double timed(Recorder& rec, const char* name, int parent, std::int64_t id,
             Fn&& fn) {
  int span = -1;
  {
    Scoped scope(rec, name, parent, id);
    span = scope.index();
    fn();
  }
  return rec.duration_ms(span);
}

/// `--key value` argument lookup; throws when a required key is absent.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      throw std::invalid_argument("dangling argument " +
                                  std::string(argv[argc - 1]));
    }
  }
  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

[[nodiscard]] inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// A request line of the generated trace: `due_ns<TAB>conn<TAB>json`.
struct TraceLine {
  std::int64_t due_ns = 0;
  int conn = 0;
  std::string line;
};

[[nodiscard]] std::vector<TraceLine> read_trace(const std::string& path);

/// Request kind from the generated line (the generator writes "type"
/// first, so a prefix test suffices).
enum class Kind { kClassify, kSolve, kOther };
[[nodiscard]] inline Kind kind_of(const std::string& line) {
  if (line.rfind("{\"type\":\"classify\"", 0) == 0) return Kind::kClassify;
  if (line.rfind("{\"type\":\"solve\"", 0) == 0) return Kind::kSolve;
  return Kind::kOther;
}
[[nodiscard]] inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kClassify: return "classify";
    case Kind::kSolve: return "solve";
    case Kind::kOther: return "other";
  }
  return "other";
}

int run_sweep(const Args& args);
int run_service(const Args& args);
int run_loadgen(const Args& args);

}  // namespace perfbench

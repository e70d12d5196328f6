// Line-delimited JSON request protocol of the lcld daemon.
//
// One request per line, one response line per request, in order. Three
// request types (the full schema is documented in DESIGN.md,
// "Classification as a service"):
//
//   {"type":"classify", "id":1, <problem selector>}
//   {"type":"solve",    "id":2, <problem selector>, "solver":"bw_generic",
//    "family":"path", "n":4096, "seed":0, "max_rounds":0,
//    "options":{"k":2}}
//   {"type":"info",     "id":3}
//
// A problem selector is exactly one of
//   "problem_seed": S          — problems::sample_table(S)
//   "problem": "edge_coloring" — a named witness table
//   "table": {"alphabet":A, "max_degree":D, "allowed":[m1..mD]}
// (`classify` requires one; `solve` defaults to seed 0, the free table,
// which only the table-driven solvers consume.)
//
// Responses are single-line JSON: `{"id":N,"ok":true,...}` on success,
// `{"id":N,"ok":false,"error":"<code>","detail":"..."}` on failure.
// The `id` is an optional client correlation token, echoed verbatim
// when present and omitted when not — it is the only per-client field,
// so identical requests produce byte-identical responses (the cache-hit
// determinism contract the hammer test pins). Parsing rides on
// `core::json::parse`; every malformed input maps to one of the typed
// `ErrorCode`s rather than a raw exception.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "problems/lclgen.hpp"

namespace lcl::service {

/// Typed protocol failures, stable wire names (see to_string).
enum class ErrorCode {
  kBadJson = 0,     ///< line does not parse as JSON
  kBadRequest,      ///< parses, but fields are missing/invalid
  kUnknownType,     ///< "type" is not classify/solve/info
  kOversizedTable,  ///< table beyond kMaxAlphabet/kMaxTableDegree caps
  kUnknownSolver,   ///< solver name not in the registry
  kUnknownFamily,   ///< family name not in the registry
  kOverloaded,      ///< admission queue full (backpressure)
  kTimeout,         ///< request expired before execution
  kInternal,        ///< unexpected server-side exception
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// A parse/validation failure carrying its wire code. The what() string
/// becomes the response's "detail". When the failing request's id was
/// already extracted before the failure, it rides along so the error
/// response still correlates (parse_request attaches it).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& detail)
      : std::runtime_error(detail), code_(code) {}
  [[nodiscard]] ErrorCode code() const { return code_; }

  void attach_id(std::int64_t id) {
    has_id_ = true;
    id_ = id;
  }
  [[nodiscard]] bool has_id() const { return has_id_; }
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  ErrorCode code_;
  bool has_id_ = false;
  std::int64_t id_ = 0;
};

/// A validated request.
struct Request {
  enum class Type { kClassify, kSolve, kInfo };

  Type type = Type::kInfo;
  bool has_id = false;
  std::int64_t id = 0;

  // Problem selector (exactly one set; see file comment).
  bool has_table = false;            ///< explicit inline table
  problems::BwTable table;
  bool has_problem_seed = false;     ///< lclgen seed
  std::uint64_t problem_seed = 0;
  std::string problem_name;          ///< named witness table ("" = none)

  // solve-only fields (protocol defaults).
  std::string solver = "bw_generic";
  std::string family = "path";
  std::int64_t n = 4096;
  std::int64_t delta = 0;            ///< 0 = family default degree bound
  std::uint64_t seed = 0;            ///< instance/run seed
  std::int64_t max_rounds = 0;       ///< 0 = 8n + 4096
  /// Solver options in request order; scalars carry one value, lists
  /// several (mirrors algo::SolverConfig).
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> options;
};

/// Parses and validates one request line. Throws ProtocolError.
[[nodiscard]] Request parse_request(std::string_view line);

/// Resolves the request's problem selector to a concrete table. The
/// caller strips/canonicalizes via the cache; this only materializes.
[[nodiscard]] problems::BwTable request_table(const Request& req);

/// `{"id":N,` when the request carried an id, else `{`. Every response
/// body is appended after this prefix.
[[nodiscard]] std::string envelope_prefix(bool has_id, std::int64_t id);

/// Full single-line error response.
[[nodiscard]] std::string render_error(bool has_id, std::int64_t id,
                                       ErrorCode code,
                                       const std::string& detail);

}  // namespace lcl::service

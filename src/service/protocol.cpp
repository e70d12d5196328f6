#include "service/protocol.hpp"

#include <cmath>
#include <limits>

#include "core/json.hpp"

namespace lcl::service {

namespace {

using core::json::Value;

constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

/// Largest instance a single solve request may ask for. Protects the
/// daemon from one request allocating the whole machine; bulk sweeps
/// belong in lclbench, not the service.
constexpr std::int64_t kMaxRequestN = 1 << 24;

[[noreturn]] void fail(ErrorCode code, const std::string& detail) {
  throw ProtocolError(code, detail);
}

/// Reads an integral JSON number in [min, max]; `what` names the field
/// in error details.
std::int64_t require_int(const Value& v, const char* what,
                         std::int64_t min, std::int64_t max) {
  if (v.type != Value::Type::kNumber || std::floor(v.number) != v.number ||
      std::fabs(v.number) > kMaxExactInt) {
    fail(ErrorCode::kBadRequest,
         std::string(what) + " must be an integer");
  }
  const auto n = static_cast<std::int64_t>(v.number);
  if (n < min || n > max) {
    fail(ErrorCode::kBadRequest, std::string(what) + " = " +
                                     std::to_string(n) +
                                     " out of range [" + std::to_string(min) +
                                     ", " + std::to_string(max) + "]");
  }
  return n;
}

const std::string& require_string(const Value& v, const char* what) {
  if (v.type != Value::Type::kString) {
    fail(ErrorCode::kBadRequest, std::string(what) + " must be a string");
  }
  return v.str;
}

/// Parses {"alphabet":A,"max_degree":D,"allowed":[m1..mD]} with the
/// representation caps enforced: over-cap sizes are kOversizedTable
/// (the table formalism cannot hold them), structurally invalid masks
/// are kBadRequest.
problems::BwTable parse_table(const Value& v) {
  if (!v.is_object()) {
    fail(ErrorCode::kBadRequest, "\"table\" must be an object");
  }
  const Value* alpha = v.find("alphabet");
  const Value* deg = v.find("max_degree");
  const Value* allowed = v.find("allowed");
  if (alpha == nullptr || deg == nullptr || allowed == nullptr) {
    fail(ErrorCode::kBadRequest,
         "\"table\" needs \"alphabet\", \"max_degree\", \"allowed\"");
  }
  const std::int64_t a = require_int(*alpha, "table.alphabet", 1,
                                     std::numeric_limits<int>::max());
  const std::int64_t d = require_int(*deg, "table.max_degree", 1,
                                     std::numeric_limits<int>::max());
  if (a > problems::kMaxAlphabet) {
    fail(ErrorCode::kOversizedTable,
         "alphabet " + std::to_string(a) + " exceeds the representation cap " +
             std::to_string(problems::kMaxAlphabet));
  }
  if (d > problems::kMaxTableDegree) {
    fail(ErrorCode::kOversizedTable,
         "max_degree " + std::to_string(d) +
             " exceeds the representation cap " +
             std::to_string(problems::kMaxTableDegree));
  }
  if (!allowed->is_array() ||
      allowed->array.size() != static_cast<std::size_t>(d)) {
    fail(ErrorCode::kBadRequest,
         "table.allowed must be an array of max_degree = " +
             std::to_string(d) + " row masks");
  }
  problems::BwTable t;
  t.alphabet = static_cast<int>(a);
  t.max_degree = static_cast<int>(d);
  t.seed = 0;
  t.name = "request";
  for (int row = 0; row < t.max_degree; ++row) {
    const std::int64_t mask =
        require_int(allowed->array[static_cast<std::size_t>(row)],
                    "table.allowed[]", 0,
                    std::numeric_limits<std::int64_t>::max());
    const auto n_multisets =
        problems::multisets(t.alphabet, row + 1).size();
    const std::uint64_t valid =
        n_multisets >= 64 ? ~0ull : ((1ull << n_multisets) - 1ull);
    if ((static_cast<std::uint64_t>(mask) & ~valid) != 0) {
      fail(ErrorCode::kBadRequest,
           "table.allowed[" + std::to_string(row) + "] has bits beyond the " +
               std::to_string(n_multisets) + " degree-" +
               std::to_string(row + 1) + " multisets");
    }
    t.allowed[static_cast<std::size_t>(row)] =
        static_cast<std::uint64_t>(mask);
  }
  return t;
}

/// The named witness tables (lclgen's paper problems) at their
/// canonical degree-3 instantiations.
problems::BwTable named_table(const std::string& name) {
  if (name == "free") return problems::free_table(2, 3);
  if (name == "edge_coloring") return problems::edge_coloring_table(3, 3);
  if (name == "weak_matching") return problems::weak_matching_table(3);
  if (name == "covering") return problems::covering_table(3);
  if (name == "two_coloring") return problems::two_coloring_table(3);
  fail(ErrorCode::kBadRequest,
       "unknown named problem \"" + name +
           "\" (known: free, edge_coloring, weak_matching, covering, "
           "two_coloring)");
}

/// Parses the shared problem selector into `req`; returns how many of
/// the three selector fields were present.
int parse_selector(const Value& root, Request& req) {
  int selectors = 0;
  if (const Value* seed = root.find("problem_seed")) {
    req.problem_seed = static_cast<std::uint64_t>(
        require_int(*seed, "problem_seed", 0,
                    static_cast<std::int64_t>(kMaxExactInt)));
    req.has_problem_seed = true;
    ++selectors;
  }
  if (const Value* name = root.find("problem")) {
    req.problem_name = require_string(*name, "problem");
    (void)named_table(req.problem_name);  // validate eagerly
    ++selectors;
  }
  if (const Value* table = root.find("table")) {
    req.table = parse_table(*table);
    req.has_table = true;
    ++selectors;
  }
  if (selectors > 1) {
    fail(ErrorCode::kBadRequest,
         "give exactly one of \"problem_seed\", \"problem\", \"table\"");
  }
  return selectors;
}

void parse_solve_fields(const Value& root, Request& req) {
  if (const Value* s = root.find("solver")) {
    req.solver = require_string(*s, "solver");
  }
  if (const Value* f = root.find("family")) {
    req.family = require_string(*f, "family");
  }
  if (const Value* n = root.find("n")) {
    req.n = require_int(*n, "n", 2, kMaxRequestN);
  }
  if (const Value* d = root.find("delta")) {
    req.delta = require_int(*d, "delta", 0, 64);
  }
  if (const Value* s = root.find("seed")) {
    req.seed = static_cast<std::uint64_t>(require_int(
        *s, "seed", 0, static_cast<std::int64_t>(kMaxExactInt)));
  }
  if (const Value* m = root.find("max_rounds")) {
    req.max_rounds = require_int(*m, "max_rounds", 0,
                                 std::numeric_limits<int>::max());
  }
  if (const Value* opts = root.find("options")) {
    if (!opts->is_object()) {
      fail(ErrorCode::kBadRequest, "\"options\" must be an object");
    }
    for (const auto& [key, val] : opts->object) {
      std::vector<std::int64_t> words;
      if (val.is_array()) {
        for (const Value& e : val.array) {
          words.push_back(require_int(
              e, ("options." + key).c_str(),
              std::numeric_limits<std::int64_t>::min(),
              std::numeric_limits<std::int64_t>::max()));
        }
      } else {
        words.push_back(require_int(
            val, ("options." + key).c_str(),
            std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()));
      }
      req.options.emplace_back(key, std::move(words));
    }
  }
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownType: return "unknown_type";
    case ErrorCode::kOversizedTable: return "oversized_table";
    case ErrorCode::kUnknownSolver: return "unknown_solver";
    case ErrorCode::kUnknownFamily: return "unknown_family";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

Request parse_request(std::string_view line) {
  Value root;
  try {
    root = core::json::parse(line);
  } catch (const std::exception& e) {
    fail(ErrorCode::kBadJson, e.what());
  }
  if (!root.is_object()) {
    fail(ErrorCode::kBadRequest, "request must be a JSON object");
  }

  Request req;
  if (const Value* id = root.find("id")) {
    req.id = require_int(*id, "id", 0,
                         static_cast<std::int64_t>(kMaxExactInt));
    req.has_id = true;
  }

  // Every failure past this point knows the request id — attach it so
  // the error response still correlates with its request.
  try {
    const Value* type = root.find("type");
    if (type == nullptr) {
      fail(ErrorCode::kBadRequest, "missing \"type\"");
    }
    const std::string& kind = require_string(*type, "type");
    if (kind == "classify") {
      req.type = Request::Type::kClassify;
      if (parse_selector(root, req) == 0) {
        fail(ErrorCode::kBadRequest,
             "classify needs one of \"problem_seed\", \"problem\", "
             "\"table\"");
      }
    } else if (kind == "solve") {
      req.type = Request::Type::kSolve;
      if (parse_selector(root, req) == 0) {
        req.has_problem_seed = true;  // default: seed 0, the free table
      }
      parse_solve_fields(root, req);
    } else if (kind == "info") {
      req.type = Request::Type::kInfo;
    } else {
      fail(ErrorCode::kUnknownType,
           "unknown request type \"" + kind +
               "\" (known: classify, solve, info)");
    }
  } catch (ProtocolError& e) {
    if (req.has_id) e.attach_id(req.id);
    throw;
  }
  return req;
}

problems::BwTable request_table(const Request& req) {
  if (req.has_table) return req.table;
  if (!req.problem_name.empty()) return named_table(req.problem_name);
  return problems::sample_table(req.problem_seed);
}

std::string envelope_prefix(bool has_id, std::int64_t id) {
  if (!has_id) return "{";
  return "{\"id\":" + std::to_string(id) + ",";
}

std::string render_error(bool has_id, std::int64_t id, ErrorCode code,
                         const std::string& detail) {
  std::string out = envelope_prefix(has_id, id);
  out += "\"ok\":false,\"error\":\"";
  out += to_string(code);
  out += "\",\"detail\":\"";
  out += core::json::escape(detail);
  out += "\"}";
  return out;
}

}  // namespace lcl::service

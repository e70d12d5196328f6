// Golden-file round-trip of the lclbench-v3 snapshot schema: a
// committed snapshot (including the problem_sweep additions: top-level
// `problems`/`problem_seed` and the agreement metrics) must parse
// through src/core/json and re-serialize byte-identically via
// core::json::dump. Schema or parser/serializer drift is caught here,
// at test time, instead of surfacing as a confusing `--compare`
// failure against an old snapshot.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/json.hpp"

namespace lcl {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(JsonRoundTrip, GoldenSnapshotReserializesByteIdentically) {
  const std::string raw = read_file(LCL_GOLDEN_SNAPSHOT);
  ASSERT_FALSE(raw.empty());
  const core::json::Value v = core::json::parse(raw);
  EXPECT_EQ(core::json::dump(v), raw)
      << "schema / parser / serializer drift: regenerate the golden "
         "with core::json::dump over a fresh problem_sweep snapshot "
         "and review the diff";
}

TEST(JsonRoundTrip, GoldenCarriesTheProblemSweepSchema) {
  const core::json::Value v =
      core::json::parse(read_file(LCL_GOLDEN_SNAPSHOT));
  EXPECT_EQ(v.get_string("schema", ""), "lclbench-v3");
  EXPECT_NE(v.find("problems"), nullptr);
  EXPECT_NE(v.find("problem_seed"), nullptr);

  const core::json::Value* scenarios = v.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  bool found_sweep = false;
  for (const core::json::Value& s : scenarios->array) {
    if (s.get_string("name", "") != "problem_sweep") continue;
    found_sweep = true;
    const core::json::Value* metrics = s.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const double total = metrics->get_number("problems_total", -1);
    const double agree = metrics->get_number("problems_agree", -1);
    EXPECT_GT(total, 0);
    EXPECT_GE(agree, 0);
    EXPECT_GE(metrics->get_number("problems_uncertified", -1), 0);
  }
  EXPECT_TRUE(found_sweep)
      << "golden snapshot must include a problem_sweep scenario";
}

TEST(JsonRoundTrip, DumpParseIsIdempotent) {
  const core::json::Value v = core::json::parse(
      R"({"a": 1, "b": [1.5, true, null, "x\ny"], "c": {"d": [], "e": {}},
          "big": 9007199254740992, "neg": -0.125})");
  const std::string once = core::json::dump(v);
  const std::string twice = core::json::dump(core::json::parse(once));
  EXPECT_EQ(once, twice);

  // Every control character plus `"` and `\` survive escape -> parse,
  // and none is written raw.
  std::string specials = "\"\\";
  for (int c = 0; c < 0x20; ++c) specials += static_cast<char>(c);
  const std::string escaped = core::json::escape(specials);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << escaped;
  }
  EXPECT_EQ(core::json::parse("\"" + escaped + "\"").str, specials);
}

TEST(JsonRoundTrip, IntegralDoublesPrintAsIntegers) {
  const core::json::Value v = core::json::parse("[3, 3.5, -0, 4503599627370496]");
  EXPECT_EQ(core::json::dump(v), "[\n  3,\n  3.5,\n  0,\n  4503599627370496\n]\n");
}

}  // namespace
}  // namespace lcl

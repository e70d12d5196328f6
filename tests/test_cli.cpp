// lclbench CLI hardening: malformed --algo-opt pairs, duplicate flags,
// and unknown scenario names must fail with exit code 2 and a clear
// one-line error — pinned here with exact-message death tests so a
// parser refactor can't silently regress the messages users script
// against.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario.hpp"

namespace lcl {
namespace {

/// Runs cli_main on a fresh argv inside a death-test child and asserts
/// on (exit code, stderr). cli_main both std::exit()s on usage errors
/// and returns codes; wrapping the return in std::exit covers both.
void expect_cli_failure(const std::vector<std::string>& args,
                        const std::string& message_regex) {
  std::vector<std::string> storage = args;
  storage.insert(storage.begin(), "lclbench");
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& s : storage) argv.push_back(s.data());
  EXPECT_EXIT(
      std::exit(bench::cli_main(static_cast<int>(argv.size()), argv.data())),
      ::testing::ExitedWithCode(2), message_regex);
}

TEST(CliHardening, AlgoOptMissingEquals) {
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "k3"},
                     "lclbench: --algo-opt malformed option 'k3' "
                     "\\(expected key=value\\)");
}

TEST(CliHardening, AlgoOptEmptyKey) {
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "=3"},
                     "lclbench: --algo-opt malformed option '=3' "
                     "\\(expected key=value\\)");
}

TEST(CliHardening, AlgoOptNonIntegerValue) {
  // Syntactically fine, semantically bad: caught at the post-selection
  // validation with the solver named.
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "k=lots"},
                     "--algo-opt .*expects an integer, got 'lots'");
}

TEST(CliHardening, AlgoOptUnknownKey) {
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "zeta=1"},
                     "no selected solver has an option 'zeta'");
}

TEST(CliHardening, DuplicateScaleFlag) {
  expect_cli_failure({"--run", "engine_micro", "--n", "0.1", "--n", "1.0"},
                     "lclbench: duplicate --n");
}

TEST(CliHardening, DuplicateSeedFlag) {
  expect_cli_failure({"--seed", "1", "--seed", "2"},
                     "lclbench: duplicate --seed");
}

TEST(CliHardening, DuplicateRunFlag) {
  expect_cli_failure({"--run", "engine_micro", "--run", "cor60_gap"},
                     "lclbench: duplicate --run");
}

TEST(CliHardening, DuplicateProblemsFlag) {
  expect_cli_failure({"--problems", "10", "--problems", "20"},
                     "lclbench: duplicate --problems");
}

TEST(CliHardening, DuplicateEngineFlag) {
  expect_cli_failure({"--engine", "simd", "--engine", "scalar"},
                     "lclbench: duplicate --engine");
}

TEST(CliHardening, UnknownEngineMode) {
  expect_cli_failure(
      {"--engine", "turbo"},
      "lclbench: --engine expects scalar\\|simd\\|auto, got 'turbo'");
  expect_cli_failure({"--engine"}, "lclbench: --engine requires a value");
}

TEST(CliHardening, DuplicateDispatchFlag) {
  expect_cli_failure({"--dispatch", "batch", "--dispatch", "pernode"},
                     "lclbench: duplicate --dispatch");
}

TEST(CliHardening, UnknownDispatchMode) {
  expect_cli_failure(
      {"--dispatch", "vectorized"},
      "lclbench: --dispatch expects pernode\\|batch\\|auto, got "
      "'vectorized'");
  expect_cli_failure({"--dispatch"},
                     "lclbench: --dispatch requires a value");
}

TEST(CliHardening, DuplicateValuelessFlags) {
  // The "at most once" contract covers the boolean flags too.
  expect_cli_failure({"--list", "--list"}, "lclbench: duplicate --list");
  expect_cli_failure(
      {"--compare", "a.json", "b.json", "--allow-missing",
       "--allow-missing"},
      "lclbench: duplicate --allow-missing");
}

TEST(CliHardening, UnknownScenario) {
  expect_cli_failure({"--run", "nope"},
                     "lclbench: unknown scenario 'nope' \\(try --list\\)");
}

TEST(CliHardening, UnknownFlag) {
  expect_cli_failure({"--bogus"}, "lclbench: unknown argument --bogus");
}

TEST(CliHardening, NonPositiveProblems) {
  expect_cli_failure({"--run", "problem_sweep", "--problems", "0"},
                     "lclbench: --problems expects a positive count");
}

TEST(CliHardening, ScaleMustBeFinitePositiveAndBounded) {
  // Each of these used to run every point at the floor size and exit 0.
  for (const char* bad : {"nan", "inf", "-1", "0", "1e300", "lots"}) {
    expect_cli_failure({"--run", "cor60_gap", "--n", bad},
                       std::string("lclbench: --n expects a scale in "
                                   "\\(0, 1000\\], got '") +
                           bad + "'");
  }
}

TEST(CliHardening, RepsAndThreadsAreRangedIntegers) {
  expect_cli_failure({"--threads", "2.7"},
                     "lclbench: --threads expects an integer in "
                     "\\[0, 1024\\], got '2.7'");
  expect_cli_failure({"--threads", "-1"},
                     "--threads expects an integer in \\[0, 1024\\]");
  expect_cli_failure({"--threads", "99999999999"},
                     "--threads expects an integer in \\[0, 1024\\]");
  expect_cli_failure({"--reps", "0"},
                     "lclbench: --reps expects an integer in "
                     "\\[1, 1000000\\], got '0'");
  expect_cli_failure({"--reps", "1.5"},
                     "--reps expects an integer in \\[1, 1000000\\]");
  expect_cli_failure({"--problems", "3x"},
                     "lclbench: --problems expects a positive count, got "
                     "'3x'");
}

TEST(CliHardening, NegativeSeedRejected) {
  expect_cli_failure(
      {"--seed", "-3"},
      "lclbench: --seed expects an unsigned integer, got '-3'");
}

TEST(CliHardening, MissingValue) {
  expect_cli_failure({"--run"}, "lclbench: --run requires a value");
}

TEST(CliHardening, TrendWindowMustBeAtLeastTwo) {
  expect_cli_failure({"--history", "a.json", "b.json", "--trend-window",
                      "1"},
                     "lclbench: --trend-window expects a window >= 2");
}

TEST(CliHardening, HistoryNeedsTwoSnapshots) {
  expect_cli_failure({"--history", "only_one.json"},
                     "lclbench --history: needs at least 2 snapshots");
  expect_cli_failure({"--history"},
                     "lclbench: --history requires a value");
}

TEST(CliHardening, DuplicateSnapshotModeFlags) {
  expect_cli_failure({"--compare", "a", "b", "--compare", "c", "d"},
                     "lclbench: duplicate --compare");
  expect_cli_failure({"--history", "a", "b", "--history", "c", "d"},
                     "lclbench: duplicate --history");
}

TEST(CliHardening, RepeatableAlgoOptStaysRepeatable) {
  // Two --algo-opt pairs must NOT trip the duplicate detector; with a
  // bad scenario name the parse still has to get past both pairs to the
  // scenario lookup.
  expect_cli_failure({"--run", "nope", "--algo-opt", "k=2", "--algo-opt",
                      "d=3"},
                     "unknown scenario 'nope'");
}

}  // namespace
}  // namespace lcl

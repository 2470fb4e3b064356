// End-to-end regression tests for the aar_sim command line, driven through
// std::system against the real binary (path injected as AAR_SIM_BINARY by
// tests/CMakeLists.txt).
//
// The headline regression: unknown flags used to be SILENTLY IGNORED — the
// parser consumed "--key value" pairs it did not recognize, so a typo like
// `--block_size 5000` ran the command with the default block size and
// reported success.  aar_sim must exit nonzero (2, the usage status) for
// unknown flags, flags missing their value, stray positional arguments, and
// numeric values that do not parse in full or fall outside the flag's range
// (the shared util::parse_flag, unit-tested at the bottom).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "util/flags.hpp"

namespace {

#ifndef AAR_SIM_BINARY
#error "tests/CMakeLists.txt must define AAR_SIM_BINARY"
#endif

/// Run aar_sim with `args`, discarding output; returns the exit status.
int run_sim(const std::string& args) {
  const std::string command =
      std::string(AAR_SIM_BINARY) + " " + args + " > /dev/null 2>&1";
  const int raw = std::system(command.c_str());
  return WEXITSTATUS(raw);
}

TEST(CliUsage, UnknownFlagIsAHardError) {
  EXPECT_EQ(run_sim("run --bogus 1"), 2);
  EXPECT_EQ(run_sim("compare --block_size 5000"), 2);  // the classic typo
  EXPECT_EQ(run_sim("generate --pairs 100 --out /tmp/x.csv --frobnicate 1"),
            2);
}

TEST(CliUsage, FlagValidityIsPerCommand) {
  // --strategy belongs to run, not compare; --window to rules, not run.
  EXPECT_EQ(run_sim("compare --strategy sliding"), 2);
  EXPECT_EQ(run_sim("run --strategy sliding --window 100"), 2);
}

TEST(CliUsage, FlagMissingItsValueIsAHardError) {
  EXPECT_EQ(run_sim("run --strategy"), 2);
  EXPECT_EQ(run_sim("compare --blocks 3 --seed"), 2);
}

TEST(CliUsage, StrayPositionalArgumentIsAHardError) {
  EXPECT_EQ(run_sim("run sliding"), 2);
  EXPECT_EQ(run_sim("run --strategy sliding extra"), 2);
}

TEST(CliUsage, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_sim("frobnicate"), 2);
  EXPECT_EQ(run_sim(""), 2);
}

TEST(CliUsage, ValidInvocationsStillSucceed) {
  EXPECT_EQ(run_sim("run --strategy sliding --blocks 3 --block-size 500"), 0);
  // --no-timers is a boolean flag: takes no value, must not eat the next
  // token.  --threads routes through the parallel engine.
  EXPECT_EQ(run_sim("run --strategy sliding --blocks 3 --block-size 500 "
                    "--no-timers --threads 2"),
            0);
  EXPECT_EQ(run_sim("compare --pairs 4000 --block-size 500 --threads 2"), 0);
}

TEST(CliUsage, MalformedNumericFlagIsAUsageError) {
  // Numeric flags used to go through an unchecked strtol/strtod: "abc"
  // read as 0 (run on all cores), and out-of-range values ran as written.
  EXPECT_EQ(run_sim("run --strategy sliding --pairs 4000 --block-size 500 "
                    "--threads abc"),
            2);
  EXPECT_EQ(run_sim("run --strategy sliding --pairs 4000 --block-size 500 "
                    "--threads 65"),
            2);
  EXPECT_EQ(run_sim("run --strategy sliding --pairs 4000 --block-size 5x0"),
            2);
  EXPECT_EQ(run_sim("compare --pairs 4000 --block-size 500 --threads two"), 2);
  EXPECT_EQ(run_sim("rules --pairs 4000 --min-confidence 1.5"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --epochs 1 --drop 0.5x"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --epochs 1 --drop 2"), 2);
}

TEST(CliUsage, MissingStrategyIsAUsageError) {
  EXPECT_EQ(run_sim("run --blocks 3 --block-size 500"), 2);
}

TEST(CliScale, StrictFlagValidation) {
  // Unknown flag, classic underscore typo, missing value, stray positional,
  // flag from another subcommand — all hard usage errors (exit 2).
  EXPECT_EQ(run_sim("scale --bogus 1"), 2);
  EXPECT_EQ(run_sim("scale --block_size 5000"), 2);
  EXPECT_EQ(run_sim("scale --nodes"), 2);
  EXPECT_EQ(run_sim("scale 4000"), 2);
  EXPECT_EQ(run_sim("scale --strategy sliding"), 2);
  EXPECT_EQ(run_sim("scale --scenario foo.v1"), 2);
  // Degenerate configs are rejected, not run.
  EXPECT_EQ(run_sim("scale --nodes 1"), 2);
  EXPECT_EQ(run_sim("scale --nodes 100 --epochs 0"), 2);
}

TEST(CliScale, SmallPopulationRunSucceeds) {
  EXPECT_EQ(run_sim("scale --nodes 300 --warmup 10 --searches 30 --epochs 2 "
                    "--churn 3 --threads 2 --shards 8"),
            0);
}

// --- util::parse_number / parse_flag -------------------------------------

using aar::util::FlagError;
using aar::util::parse_flag;
using aar::util::parse_number;

TEST(FlagParse, IntegersMustParseInFullAndInRange) {
  EXPECT_EQ(parse_number<std::size_t>("64", 0, 64), 64u);
  EXPECT_EQ(parse_number<std::size_t>("+2", 0, 64), 2u);
  EXPECT_EQ(parse_number<std::size_t>("65", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("-1", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("abc", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("4x", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>(" 4", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("+", 0, 64), std::nullopt);
  EXPECT_EQ(parse_number<int>("+-1", -5, 5), std::nullopt);
  EXPECT_EQ(parse_number<int>("-5", -5, 5), -5);
}

TEST(FlagParse, IntegerRangeIsTheTypeRangeByDefault) {
  EXPECT_EQ(parse_flag<std::uint16_t>("port", "65535"), 65535);
  EXPECT_THROW((void)parse_flag<std::uint16_t>("port", "70000"), FlagError);
  EXPECT_EQ(parse_flag<std::uint64_t>("seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)parse_flag<std::uint64_t>("seed", "18446744073709551616"),
               FlagError);
  EXPECT_THROW((void)parse_flag<std::uint32_t>("min-support", "-1"),
               FlagError);
}

TEST(FlagParse, RealsRejectGarbageNanAndOutOfRange) {
  EXPECT_EQ(parse_number("0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(parse_number("1e-3", 0.0, 1.0), 1e-3);
  EXPECT_EQ(parse_number("1", 0.0, 1.0), 1.0);
  EXPECT_EQ(parse_number("1.5", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(parse_number("-0.1", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(parse_number("nan", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(parse_number("inf", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(parse_number("0.5x", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(parse_number("0,5", 0.0, 1.0), std::nullopt);
}

TEST(FlagParse, ErrorNamesTheFlagRangeAndValue) {
  try {
    (void)parse_flag<std::size_t>("threads", "abc", 0, 64);
    FAIL() << "no FlagError";
  } catch (const FlagError& error) {
    EXPECT_STREQ(error.what(),
                 "--threads must be an integer in 0..64, got 'abc'");
  }
  try {
    (void)parse_flag<std::uint64_t>("expect-hits", "0", 1);
    FAIL() << "no FlagError";
  } catch (const FlagError& error) {
    EXPECT_STREQ(error.what(),
                 "--expect-hits must be a positive integer, got '0'");
  }
}

}  // namespace

// Strict numeric flag parsing in bench::OptionRegistry, shared by every
// bench and deepserve_sim: a malformed number is a usage error (exit 2),
// never a silent 0 that aborts deep in the simulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"

namespace deepserve::bench {
namespace {

TEST(ParseNumberTest, AcceptsOnlyAWholeNumberOfTheTargetType) {
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("2.5", &d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(ParseNumber("-5", &d));
  EXPECT_EQ(d, -5.0);
  EXPECT_TRUE(ParseNumber("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  for (const char* bad : {"", "abc", "5x", " 5", "5 ", "1,5", "nan", "inf", "1e999"}) {
    d = 7.0;
    EXPECT_FALSE(ParseNumber(bad, &d)) << "'" << bad << "'";
    EXPECT_EQ(d, 7.0) << "'" << bad << "' overwrote the value";
  }

  int i = 0;
  EXPECT_TRUE(ParseNumber("-12", &i));
  EXPECT_EQ(i, -12);
  for (const char* bad : {"", "4.5", "0x10", "12abc", "99999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << "'" << bad << "'";
  }

  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"-1", "+3", "18446744073709551616"}) {
    EXPECT_FALSE(ParseNumber(bad, &u)) << "'" << bad << "'";
  }
}

struct Parsed {
  double rps = 1.0;
  int tes = 0;
  uint64_t seed = 0;
  bool smoke = false;
  std::vector<std::string> rest;
};

Parsed ParseArgs(std::vector<std::string> args) {
  Parsed parsed;
  OptionRegistry registry;
  registry.Flag("rps", &parsed.rps, "arrival rate");
  registry.Flag("tes", &parsed.tes, "TE count");
  registry.Flag("seed", &parsed.seed, "seed");
  registry.Flag("smoke", &parsed.smoke, "smoke mode");
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  for (char* arg : registry.Parse(static_cast<int>(argv.size()), argv.data())) {
    parsed.rest.push_back(arg);
  }
  return parsed;
}

TEST(OptionRegistryTest, ParsesWellFormedFlagsAndPassesTheRestThrough) {
  Parsed parsed = ParseArgs({"--rps=2.5", "--tes=4", "--seed=42", "--smoke", "--trace-out=t.json"});
  EXPECT_EQ(parsed.rps, 2.5);
  EXPECT_EQ(parsed.tes, 4);
  EXPECT_EQ(parsed.seed, 42u);
  EXPECT_TRUE(parsed.smoke);
  EXPECT_EQ(parsed.rest, (std::vector<std::string>{"prog", "--trace-out=t.json"}));
}

TEST(OptionRegistryDeathTest, MalformedNumberIsAUsageError) {
  for (const char* bad : {"--rps=abc", "--rps=", "--rps=1.5x", "--tes=2.5", "--seed=-1"}) {
    EXPECT_EXIT(ParseArgs({bad}), ::testing::ExitedWithCode(2), "invalid value for --")
        << bad;
  }
}

}  // namespace
}  // namespace deepserve::bench

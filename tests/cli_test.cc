// Bench CLI parsing: declared flags in both forms, binary-specific
// extras, and the aggregated unknown-flag error naming every typo plus
// the full valid set. Each case declares the flags it parses, as a bench
// main does.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cli.h"

namespace hostcc::exp {
namespace {

BenchOpts parse(std::vector<const char*> args,
                std::initializer_list<const char*> extra = {}) {
  args.insert(args.begin(), "bench");
  return parse_bench_opts(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()), extra);
}

// What a sweep main that also runs fabric configurations declares.
BenchOpts parse_sweep(std::vector<const char*> args) {
  return parse(std::move(args), {"--jobs", "--shards"});
}

TEST(BenchCliTest, ParsesSharedFlagsInBothForms) {
  const BenchOpts a = parse_sweep({"--quick", "--jobs", "4", "--shards", "2"});
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.jobs, 4);
  EXPECT_EQ(a.shards, 2);
  const BenchOpts b = parse_sweep({"--jobs=0", "--shards=8"});
  EXPECT_FALSE(b.quick);
  EXPECT_EQ(b.jobs, 0);
  EXPECT_EQ(b.shards, 8);
  const BenchOpts c = parse_sweep({});
  EXPECT_EQ(c.jobs, 1);
  EXPECT_EQ(c.shards, 1);
  EXPECT_THROW(parse_sweep({"--shards", "0"}), std::invalid_argument);
  // A binary that declares neither rejects both.
  EXPECT_THROW(parse({"--jobs", "2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shards", "2"}), std::invalid_argument);
}

TEST(BenchCliTest, ExtraFlagsAreAcceptedWithAndWithoutValues) {
  const BenchOpts o =
      parse({"--timeseries", "--bins", "32", "--out=x.csv", "--quick"},
            {"--timeseries", "--bins", "--out"});
  EXPECT_TRUE(o.quick);
}

TEST(BenchCliTest, UnknownFlagsAggregateIntoOneError) {
  try {
    parse_sweep({"--qiuck", "--jobs", "2", "--shard", "1", "--bogus=7"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // Every unknown flag is named...
    EXPECT_NE(msg.find("--qiuck"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--shard\n"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--bogus=7"), std::string::npos) << msg;
    // ...and the full valid set is listed.
    EXPECT_NE(msg.find("--quick, --jobs N, --shards N"), std::string::npos) << msg;
  }
}

TEST(BenchCliTest, ErrorListsDeclaredExtraFlagsAsValid) {
  try {
    parse({"--nope"}, {"--timeseries", "--ewma-sweep"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--timeseries"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--ewma-sweep"), std::string::npos) << msg;
  }
}

TEST(BenchCliTest, ValueAttachmentDoesNotSwallowFlags) {
  // "--quick" after "--jobs" must stay a flag, not become jobs' value.
  const BenchOpts o = parse_sweep({"--jobs", "--quick"});
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.jobs, 0);  // atoi("") — explicit value absent
}

TEST(BenchCliTest, DeclaredExtrasComeBackInTheirFields) {
  const BenchOpts o =
      parse({"--json", "--csv", "--timeseries", "--ewma-sweep", "--telemetry", "out"},
            {"--json", "--csv", "--timeseries", "--ewma-sweep", "--telemetry"});
  EXPECT_TRUE(o.json);
  EXPECT_TRUE(o.csv);
  EXPECT_TRUE(o.timeseries);
  EXPECT_TRUE(o.ewma_sweep);
  EXPECT_EQ(o.telemetry_dir, "out");
  // A binary that does not declare an extra rejects it.
  EXPECT_THROW(parse({"--json"}), std::invalid_argument);
}

TEST(BenchCliTest, BadValuesAggregateWithUnknownFlags) {
  try {
    parse({"--quik", "--jobs", "x", "--shards=2x", "--telemetry"},
          {"--jobs", "--shards", "--telemetry"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--quik"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--jobs: expected an integer, got 'x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--shards: expected an integer, got '2x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--telemetry: missing directory"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace hostcc::exp

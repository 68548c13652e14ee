// Scenario-file grammar: key=value sections parse into a
// FabricScenarioConfig, every problem in a bad file is reported in one
// aggregated std::invalid_argument, and a file-driven run is identical to
// the same config assembled in code.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/fabric_scenario.h"
#include "exp/scenario_file.h"

namespace hostcc::exp {
namespace {

TEST(ScenarioFileTest, ParsesFullGrammar) {
  const FabricScenarioConfig cfg = parse_scenario_text(R"(
# full-grammar smoke
[fabric]
topology = leaf-spine:2x4
seed = 42            # trailing comment
cc = swift
hostcc = true
warmup_ms = 1.5
measure_ms = 8

[workload]
arrival = mmpp
load = 0.75
size_cdf = hadoop
slots_per_pair = 4
reuse_cooldown_us = 150
seed = 9
burst_factor = 3
burst_on_us = 500
burst_off_us = 1500
profile = 0:1.0, 2000:0.5

[rpc]
fanout = 3
response_bytes = 4096
rate_hz = 1000
)");
  EXPECT_EQ(cfg.topology, "leaf-spine:2x4");
  EXPECT_EQ(cfg.host.seed, 42u);
  EXPECT_EQ(cfg.transport.cc, transport::CcKind::kSwift);
  EXPECT_TRUE(cfg.hostcc_enabled);
  EXPECT_EQ(cfg.warmup, sim::Time::microseconds(1500));
  EXPECT_EQ(cfg.measure, sim::Time::milliseconds(8));

  EXPECT_TRUE(cfg.workload.enabled);
  EXPECT_EQ(cfg.workload.arrival, workload::ArrivalKind::kMmpp);
  EXPECT_DOUBLE_EQ(cfg.workload.load, 0.75);
  EXPECT_EQ(cfg.workload.size_dist, "hadoop");
  EXPECT_EQ(cfg.workload.slots_per_pair, 4);
  EXPECT_EQ(cfg.workload.reuse_cooldown, sim::Time::microseconds(150));
  EXPECT_EQ(cfg.workload.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.workload.burst_factor, 3.0);
  ASSERT_EQ(cfg.workload.profile.size(), 2u);
  EXPECT_EQ(cfg.workload.profile[1].first, sim::Time::microseconds(2000));
  EXPECT_DOUBLE_EQ(cfg.workload.profile[1].second, 0.5);

  EXPECT_TRUE(cfg.workload.rpc.enabled);
  EXPECT_EQ(cfg.workload.rpc.fanout, 3);
  EXPECT_EQ(cfg.workload.rpc.response_bytes, 4096);
  EXPECT_DOUBLE_EQ(cfg.workload.rpc.rate_hz, 1000.0);
}

TEST(ScenarioFileTest, WorkloadSectionPresenceEnablesTheEngine) {
  const FabricScenarioConfig with = parse_scenario_text("[workload]\n");
  EXPECT_TRUE(with.workload.enabled);
  const FabricScenarioConfig without = parse_scenario_text("[fabric]\ntopology = star:4\n");
  EXPECT_FALSE(without.workload.enabled);
  EXPECT_FALSE(without.workload.rpc.enabled);
}

TEST(ScenarioFileTest, EveryParseProblemReportedAtOnceWithLineNumbers) {
  try {
    parse_scenario_text(
        "stray = 1\n"              // line 1: key before any section
        "[fabrik]\n"               // line 2: unknown section
        "[fabric]\n"
        "warp = 9\n"               // line 4: unknown key
        "mtu = fat\n"              // line 5: bad value
        "[workload]\n"
        "arrival = burst\n"        // line 7: bad enum
        "profile = 0-1\n",         // line 8: bad profile grammar
        "test.conf");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invalid scenario file test.conf:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 1: key 'stray' before any section"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2: unknown section [fabrik]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 4: unknown key 'warp' in [fabric]"), std::string::npos) << msg;
    // Unknown-key errors list every valid key, aggregated-CLI style.
    EXPECT_NE(msg.find("topology, hosts, shards"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 5: fabric.mtu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 7: workload.arrival: expected poisson | mmpp"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("line 8: workload.profile"), std::string::npos) << msg;
  }
}

TEST(ScenarioFileTest, SemanticProblemsAggregateInTheScenarioBuild) {
  // The file parses (grammar is fine) but the values are unusable; the
  // FabricScenario constructor must name every one in a single throw.
  FabricScenarioConfig cfg = parse_scenario_text(
      "[fabric]\n"
      "topology = leaf-spine:2x2\n"
      "shards = 0\n"
      "[workload]\n"
      "load = 5.0\n"
      "slots_per_pair = 0\n"
      "reuse_cooldown_us = 0\n"
      "size_cdf = nope\n");
  try {
    FabricScenario s(std::move(cfg));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fabric_scenario.shards must be >= 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("workload.load"), std::string::npos) << msg;
    EXPECT_NE(msg.find("workload.slots_per_pair"), std::string::npos) << msg;
    EXPECT_NE(msg.find("workload.reuse_cooldown_us"), std::string::npos) << msg;
    EXPECT_NE(msg.find("size_cdf"), std::string::npos) << msg;
  }
}

TEST(ScenarioFileTest, FaultEdgeErrorsNameTheSpecAndItsLine) {
  FabricScenarioConfig cfg = parse_scenario_text(
      "[fabric]\n"
      "topology = leaf-spine:2x2\n"
      "fault = link_down@100+100:h0-leaf0\n"
      "fault = link_down@100+100:nowhere\n",
      "incast.conf");
  ASSERT_EQ(cfg.faults.events.size(), 2u);
  EXPECT_EQ(cfg.faults.events[1].spec, "link_down@100+100:nowhere");
  EXPECT_EQ(cfg.faults.events[1].origin, "incast.conf:4");
  const std::vector<std::string> errs = validate(cfg);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_EQ(errs[0].rfind("incast.conf:4 'link_down@100+100:nowhere': fault link_down: edge "
                          "'nowhere' does not exist",
                          0),
            0u)
      << errs[0];
}

TEST(ScenarioFileTest, KeysForTheCliOnlyFieldsSetThem) {
  const FabricScenarioConfig cfg = parse_scenario_text(
      "[fabric]\n"
      "it = 60\n"
      "ddio = true\n"  // after `it`: DDIO's I_T of 50 wins, as --it 60 --ddio
      "promote_threshold = 32768\n"
      "messages_per_flow = 4\n"
      "iommu_miss_rate = 0.4\n");
  EXPECT_TRUE(cfg.host.ddio_enabled);
  EXPECT_DOUBLE_EQ(cfg.hostcc.iio_threshold, 50.0);
  EXPECT_EQ(cfg.promote_threshold, 32768);
  EXPECT_EQ(cfg.messages_per_flow, 4u);
  EXPECT_TRUE(cfg.host.iommu_enabled);
  EXPECT_DOUBLE_EQ(cfg.host.iotlb_miss_rate, 0.4);
}

TEST(ScenarioFileTest, SetFabricKeyAppliesOneLine) {
  FabricScenarioConfig cfg;
  EXPECT_FALSE(set_fabric_key(cfg, "degree", "3"));
  EXPECT_DOUBLE_EQ(cfg.mapp_degree, 3.0);
  EXPECT_EQ(set_fabric_key(cfg, "hosts", "abc").value_or(""),
            "fabric.hosts: expected an integer, got 'abc'");
  EXPECT_NE(set_fabric_key(cfg, "warp", "9").value_or("").find("unknown key 'warp' in [fabric]"),
            std::string::npos);
}

TEST(ScenarioFileTest, UnreadableFileThrows) {
  EXPECT_THROW(load_scenario_file("/nonexistent/scenario.conf"), std::invalid_argument);
}

TEST(ScenarioFileTest, FileRunMatchesEquivalentInCodeConfig) {
  const std::string path = ::testing::TempDir() + "roundtrip.conf";
  {
    std::ofstream out(path);
    out << "[fabric]\n"
           "topology = leaf-spine:2x2\n"
           "seed = 3\n"
           "warmup_ms = 1\n"
           "measure_ms = 4\n"
           "[workload]\n"
           "arrival = poisson\n"
           "load = 0.4\n"
           "size_cdf = fixed:32768\n"
           "slots_per_pair = 8\n"
           "reuse_cooldown_us = 100\n"
           "seed = 5\n";
  }
  FabricScenarioConfig direct;
  direct.topology = "leaf-spine:2x2";
  direct.host.seed = 3;
  direct.warmup = sim::Time::milliseconds(1);
  direct.measure = sim::Time::milliseconds(4);
  direct.workload.enabled = true;
  direct.workload.arrival = workload::ArrivalKind::kPoisson;
  direct.workload.load = 0.4;
  direct.workload.size_dist = "fixed:32768";
  direct.workload.slots_per_pair = 8;
  direct.workload.reuse_cooldown = sim::Time::microseconds(100);
  direct.workload.seed = 5;

  FabricScenario a(load_scenario_file(path));
  FabricScenario b(std::move(direct));
  const FabricScenarioResults ra = a.run();
  const FabricScenarioResults rb = b.run();
  std::remove(path.c_str());

  EXPECT_EQ(ra.flows_started, rb.flows_started);
  EXPECT_EQ(ra.flows_completed, rb.flows_completed);
  EXPECT_EQ(ra.flows_skipped, rb.flows_skipped);
  EXPECT_EQ(ra.conn_pool_opens, rb.conn_pool_opens);
  EXPECT_EQ(ra.conn_pool_reuses, rb.conn_pool_reuses);
  EXPECT_EQ(ra.flow_episodes, rb.flow_episodes);
  EXPECT_DOUBLE_EQ(ra.net_tput_gbps, rb.net_tput_gbps);
  EXPECT_DOUBLE_EQ(ra.fct_p50_us, rb.fct_p50_us);
  EXPECT_DOUBLE_EQ(ra.fct_p999_us, rb.fct_p999_us);
  EXPECT_EQ(ra.invariant_violations, 0u);
  EXPECT_GT(ra.flows_completed, 100u);
}

}  // namespace
}  // namespace hostcc::exp

// Determinism guarantees of the event core and the sweep runner:
//  - repeated fixed-seed runs produce byte-identical trace JSON, metrics
//    JSON, and results (the (time, sequence) FIFO contract end-to-end);
//  - SweepRunner output is invariant to --jobs (parallel == serial);
//  - fabric runs are invariant to --shards: every N >= 1 produces
//    exactly the bytes N = 1 does (results, telemetry CSV, Chrome trace,
//    flow CSV, decisions CSV), fault plans included.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/fabric_scenario.h"
#include "exp/scenario.h"
#include "sim/sweep_runner.h"

namespace hostcc {
namespace {

// Byte-exact rendering of every results field (hexfloat for doubles).
std::string serialize(const exp::ScenarioResults& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.net_tput_gbps << ',' << r.host_drop_rate_pct << ',' << r.fabric_drop_rate_pct << ','
     << r.drop_rate_pct << ',' << r.mapp_mem_gbps << ',' << r.net_mem_gbps << ',' << r.mem_util
     << ',' << r.mapp_mem_util << ',' << r.net_mem_util << ',' << r.avg_iio_occupancy << ','
     << r.avg_pcie_gbps << ',' << r.sender_timeouts << ',' << r.sender_fast_retransmits << ','
     << r.ecn_marked_pkts << ',' << r.invariant_violations;
  for (const sim::LatencySummary& l : r.rpc_latency) {
    os << ',' << l.count << ',' << l.p50.ps() << ',' << l.p99.ps() << ',' << l.max.ps();
  }
  return os.str();
}

exp::ScenarioConfig mini_config() {
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 2.0;
  cfg.hostcc_enabled = true;
  cfg.record_signals = true;
  cfg.trace_packets = true;
  cfg.record_decisions = true;
  cfg.rpc_sizes = {16 * 1024};
  cfg.warmup = sim::Time::milliseconds(3);
  cfg.measure = sim::Time::milliseconds(3);
  return cfg;
}

struct Artifacts {
  std::string results;
  std::string trace;
  std::string metrics;
  std::uint64_t events = 0;
};

Artifacts run_once() {
  exp::Scenario s(mini_config());
  Artifacts a;
  a.results = serialize(s.run());
  a.events = s.simulator().events_executed();
  std::ostringstream t;
  s.tracer().write_chrome_json(t);
  a.trace = t.str();
  std::ostringstream m;
  s.metrics().write_json(m, s.simulator().now());
  a.metrics = m.str();
  return a;
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  const Artifacts a = run_once();
  const Artifacts b = run_once();
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

// Fault runs are as deterministic as fault-free ones: identical seeds +
// identical FaultPlan produce byte-identical artifacts.
TEST(DeterminismTest, FaultRunsAreByteIdentical) {
  const auto run_faulted = [] {
    exp::ScenarioConfig cfg = mini_config();
    for (const char* spec : {"msr_stall@3500+500:80", "msr_torn@4000+500:0.4", "mba_fail@3500+1000",
                             "link_down@4200+200:1", "sampler_pause@5000+100"}) {
      EXPECT_FALSE(cfg.faults.add_spec(spec).has_value()) << spec;
    }
    exp::Scenario s(cfg);
    Artifacts a;
    a.results = serialize(s.run());
    a.events = s.simulator().events_executed();
    std::ostringstream m;
    s.metrics().write_json(m, s.simulator().now());
    a.metrics = m.str();
    return a;
  };
  const Artifacts a = run_faulted();
  const Artifacts b = run_faulted();
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics, b.metrics);
}

// --- sharded fabric determinism ---

// Byte-exact rendering of every fabric results field (hexfloat doubles).
std::string serialize(const exp::FabricScenarioResults& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.net_tput_gbps << ',' << r.host_drop_rate_pct << ',' << r.fabric_drop_rate_pct << ','
     << r.fabric_drop_frac << ',' << r.fabric_drops << ',' << r.fabric_marks << ','
     << r.fabric_no_route_drops << ',' << r.delivered_pkts << ',' << r.fabric_occupancy_peak
     << ',' << r.avg_iio_occupancy << ',' << r.avg_pcie_gbps << ',' << r.sender_timeouts << ','
     << r.sender_fast_retransmits << ',' << r.invariant_violations << ',' << r.flow_episodes
     << ',' << r.fct_p50_us << ',' << r.fct_p99_us << ',' << r.fct_p999_us;
  return os.str();
}

exp::FabricScenarioConfig sharded_config(int shards) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:4x4";  // 6 switches -> 6 cells when sharded
  cfg.hosts = 8;
  cfg.shards = shards;
  cfg.mapp_degree = 2.0;
  cfg.hostcc_enabled = true;
  cfg.record_decisions = true;
  cfg.record_flow_stats = true;
  cfg.flow_bytes = 64 * 1024;
  cfg.telemetry = true;
  cfg.warmup = sim::Time::milliseconds(2);
  cfg.measure = sim::Time::milliseconds(2);
  return cfg;
}

struct FabricArtifacts {
  std::string results;
  std::string telemetry;
  std::string trace;
  std::string flows;
  std::string decisions;
  std::uint64_t events = 0;
};

FabricArtifacts run_fabric_once(exp::FabricScenarioConfig cfg) {
  exp::FabricScenario s(std::move(cfg));
  FabricArtifacts a;
  a.results = serialize(s.run());
  a.events = s.events_executed();
  std::ostringstream tel, tr, fl, dec;
  s.telemetry().write_csv(tel);
  a.telemetry = tel.str();
  s.telemetry().write_chrome_json(tr);
  a.trace = tr.str();
  s.flow_stats().write_csv(fl);
  a.flows = fl.str();
  s.decisions().write_csv(dec);
  a.decisions = dec.str();
  return a;
}

void expect_identical(const FabricArtifacts& a, const FabricArtifacts& b, const char* tag) {
  EXPECT_EQ(a.results, b.results) << tag;
  EXPECT_EQ(a.events, b.events) << tag;
  EXPECT_EQ(a.telemetry, b.telemetry) << tag;
  EXPECT_EQ(a.trace, b.trace) << tag;
  EXPECT_EQ(a.flows, b.flows) << tag;
  EXPECT_EQ(a.decisions, b.decisions) << tag;
}

// The tentpole contract: --shards N is pure execution policy. The 1-, 2-,
// and 4-worker runs of the same config must produce exactly the same
// bytes everywhere we export them.
TEST(DeterminismTest, ShardedRunsInvariantToShardCount) {
  const FabricArtifacts one = run_fabric_once(sharded_config(1));
  const FabricArtifacts two = run_fabric_once(sharded_config(2));
  const FabricArtifacts four = run_fabric_once(sharded_config(4));
  EXPECT_FALSE(one.telemetry.empty());
  EXPECT_FALSE(one.flows.empty());
  expect_identical(one, two, "shards 1 vs 2");
  expect_identical(one, four, "shards 1 vs 4");
}

// The partition must actually engage on a multi-switch topology (guards
// against a silent fallback to one cell making the test vacuous).
TEST(DeterminismTest, ShardedRunPartitionsPerSwitch) {
  exp::FabricScenario s(sharded_config(2));
  EXPECT_EQ(s.shard_plan().cells, 6);
  EXPECT_TRUE(s.shard_plan().parallel());
  EXPECT_EQ(s.engine()->workers(), 2);
  EXPECT_GT(s.shard_plan().lookahead, sim::Time::zero());
}

// Fault plans replay identically under sharding: edge-named fabric faults,
// host-side MSR faults, and numeric uplink faults all land on the owning
// cell's thread at the same sim times for every worker count.
TEST(DeterminismTest, ShardedFaultRunsInvariantToShardCount) {
  const auto faulted = [](int shards) {
    exp::FabricScenarioConfig cfg = sharded_config(shards);
    for (const char* spec :
         {"link_down@2500+400:leaf0-spine0", "msr_stall@2200+500:40", "link_degrade@2800+300:0.5:1"}) {
      EXPECT_FALSE(cfg.faults.add_spec(spec).has_value()) << spec;
    }
    return run_fabric_once(std::move(cfg));
  };
  const FabricArtifacts one = faulted(1);
  const FabricArtifacts two = faulted(2);
  const FabricArtifacts four = faulted(4);
  expect_identical(one, two, "fault shards 1 vs 2");
  expect_identical(one, four, "fault shards 1 vs 4");
}

TEST(DeterminismTest, SweepResultsInvariantToJobCount) {
  const auto make_tasks = [] {
    std::vector<std::function<std::string()>> tasks;
    for (const double degree : {0.0, 1.5, 3.0}) {
      for (const bool hostcc : {false, true}) {
        tasks.emplace_back([degree, hostcc] {
          exp::ScenarioConfig cfg;
          cfg.mapp_degree = degree;
          cfg.hostcc_enabled = hostcc;
          cfg.warmup = sim::Time::milliseconds(2);
          cfg.measure = sim::Time::milliseconds(2);
          exp::Scenario s(cfg);
          return serialize(s.run());
        });
      }
    }
    return tasks;
  };
  const auto serial = sim::SweepRunner(1).run(make_tasks());
  const auto parallel = sim::SweepRunner(8).run(make_tasks());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace hostcc

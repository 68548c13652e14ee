// Determinism guarantees of the event core and the sweep runner:
//  - repeated fixed-seed runs produce byte-identical trace JSON, metrics
//    JSON, and results (the (time, sequence) FIFO contract end-to-end);
//  - SweepRunner output is invariant to --jobs (parallel == serial);
//  - fabric runs are invariant to --shards: every N >= 1 produces
//    exactly the bytes N = 1 does (results, telemetry CSV, Chrome trace,
//    flow CSV, decisions CSV), fault plans included, however the run is
//    sliced and wherever the engine places its cells;
//  - sim::place_cells, the engine's cell placement, is a pure function.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/fabric_scenario.h"
#include "exp/scenario.h"
#include "sim/sharded_sim.h"
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

// Runs the rest of `s` (warmup + measure) and collects every export.
FabricArtifacts finish_fabric(exp::FabricScenario& s) {
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

FabricArtifacts run_fabric_once(exp::FabricScenarioConfig cfg) {
  exp::FabricScenario s(std::move(cfg));
  return finish_fabric(s);
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

// Each run_for() slice re-enters the parallel loop, which re-places the
// cells by the busy time measured so far; slices of an odd length also
// stop mid-epoch, and one slice longer than kReplaceEpochs epochs
// re-places them inside the loop. None of it may change a byte, nor the
// epoch count.
TEST(DeterminismTest, ShardedSlicedRunsInvariantToShardCount) {
  struct Sliced {
    FabricArtifacts artifacts;
    std::uint64_t epochs = 0;
  };
  const auto sliced = [](int shards) {
    // On a fat-tree, cell 0 is a core switch: a light cell, which
    // placement moves off worker 0.
    exp::FabricScenarioConfig cfg = sharded_config(shards);
    cfg.topology = "fat-tree:4";
    exp::FabricScenario s(std::move(cfg));
    for (int i = 0; i < 24; ++i) s.run_for(sim::Time::nanoseconds(97'300));
    const std::uint64_t before = s.engine()->epochs_entered();
    s.run_for(sim::Time::milliseconds(7));
    EXPECT_GT(s.engine()->epochs_entered() - before, sim::ShardedSimulator::kReplaceEpochs);
    Sliced out;
    out.artifacts = finish_fabric(s);
    out.epochs = s.engine()->epochs_entered();
    // Every step is charged to exactly one worker.
    const sim::ShardedSimulator& e = *s.engine();
    double cells = 0, workers = 0;
    for (int c = 0; c < e.cell_count(); ++c) cells += e.cell_wall_ms(c);
    for (int w = 0; w < e.workers(); ++w) workers += e.worker_wall_ms(w);
    EXPECT_NEAR(workers, cells, 1e-6 * cells + 1e-9) << "shards " << shards;
    return out;
  };
  const Sliced one = sliced(1);
  const Sliced four = sliced(4);
  EXPECT_FALSE(one.artifacts.flows.empty());
  expect_identical(one.artifacts, four.artifacts, "sliced shards 1 vs 4");
  EXPECT_EQ(one.epochs, four.epochs);
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

// --- cell placement ---

TEST(ShardedPlacementTest, HeavyCellRunsAlone) {
  std::vector<std::int64_t> w(13, 1);
  w[5] = 100;
  const std::vector<std::vector<int>> p = sim::place_cells(w, 4);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], std::vector<int>{5});
  EXPECT_EQ(p[1], (std::vector<int>{0, 3, 7, 10}));
  EXPECT_EQ(p[2], (std::vector<int>{1, 4, 8, 11}));
  EXPECT_EQ(p[3], (std::vector<int>{2, 6, 9, 12}));
}

TEST(ShardedPlacementTest, EqualOrZeroWeightsDealRoundRobin) {
  for (std::int64_t weight : {0, 7}) {
    const std::vector<std::vector<int>> p = sim::place_cells(std::vector<std::int64_t>(10, weight), 4);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0], (std::vector<int>{0, 4, 8})) << weight;
    EXPECT_EQ(p[1], (std::vector<int>{1, 5, 9})) << weight;
    EXPECT_EQ(p[2], (std::vector<int>{2, 6})) << weight;
    EXPECT_EQ(p[3], (std::vector<int>{3, 7})) << weight;
  }
}

TEST(ShardedPlacementTest, TiesBreakByCellThenWorkerIndex) {
  // Cells 1 and 3 tie at the top: cell 1 goes first, to worker 0, and
  // cell 3 to worker 1. Cells 0, 2 and 4 fill worker 2 up to 6; cell 5
  // then finds workers 0 and 1 tied at load 5 and one cell each, and
  // takes worker 0.
  const std::vector<std::vector<int>> p = sim::place_cells({2, 5, 2, 5, 2, 2}, 3);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], (std::vector<int>{1, 5}));
  EXPECT_EQ(p[1], (std::vector<int>{3}));
  EXPECT_EQ(p[2], (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(p, sim::place_cells({2, 5, 2, 5, 2, 2}, 3));
}

TEST(ShardedPlacementTest, EveryCellPlacedOnceAndNoWorkerIdle) {
  std::uint64_t x = 88172645463325252ull;  // xorshift64: any weights will do
  for (int cells = 1; cells <= 40; ++cells) {
    for (int workers = 1; workers <= cells && workers <= 8; ++workers) {
      std::vector<std::int64_t> w(static_cast<std::size_t>(cells));
      for (std::int64_t& v : w) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = static_cast<std::int64_t>(x % 4) * static_cast<std::int64_t>(x % 1000);
      }
      const std::vector<std::vector<int>> p = sim::place_cells(w, workers);
      ASSERT_EQ(p.size(), static_cast<std::size_t>(workers));
      std::vector<int> seen(static_cast<std::size_t>(cells), 0);
      for (const std::vector<int>& list : p) {
        EXPECT_FALSE(list.empty()) << cells << " cells, " << workers << " workers";
        EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
        for (int c : list) ++seen[static_cast<std::size_t>(c)];
      }
      EXPECT_EQ(seen, std::vector<int>(static_cast<std::size_t>(cells), 1));
    }
  }
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

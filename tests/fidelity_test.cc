// Hybrid-fidelity host tier (src/exp/fidelity.h):
//  - auto-mode runs are deterministic: repeated runs and every --shards N
//    produce byte-identical results, telemetry CSV, and decision CSV, with
//    promotions happening mid-run;
//  - promotion mid-incast transfers transport state exactly (every
//    closed-loop message's bytes are delivered, conservation ledgers
//    balance, and the victim later demotes back to the flow-level tier);
//  - fault-plan validation names the host tier for surfaces the analytic
//    tier doesn't model, and a pause_storm on an analytic host's uplink
//    forces promotion under --fidelity auto instead of no-opping.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/fabric_scenario.h"

namespace hostcc {
namespace {

std::string serialize(const exp::FabricScenarioResults& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.net_tput_gbps << ',' << r.host_drop_rate_pct << ',' << r.fabric_drop_rate_pct << ','
     << r.fabric_drops << ',' << r.fabric_marks << ',' << r.delivered_pkts << ','
     << r.fabric_occupancy_peak << ',' << r.sender_timeouts << ',' << r.sender_fast_retransmits
     << ',' << r.invariant_violations << ',' << r.flow_episodes << ',' << r.fct_p50_us << ','
     << r.fct_p99_us << ',' << r.hosts_full << ',' << r.hosts_analytic << ',' << r.promotions
     << ',' << r.demotions;
  return os.str();
}

// 8-host leaf-spine all-to-all in auto mode: host 0 is pinned full (the
// congested destination), the other seven start analytic and promote on
// real congestion, so the run exercises mid-run tier swaps.
exp::FabricScenarioConfig auto_cfg() {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x4";
  cfg.fidelity = exp::HostFidelity::kAuto;
  cfg.traffic = exp::FabricTraffic::kAllToAll;
  cfg.flow_bytes = 64 * 1024;
  cfg.record_flow_stats = true;
  cfg.record_decisions = true;
  cfg.telemetry = true;
  cfg.warmup = sim::Time::milliseconds(1);
  cfg.measure = sim::Time::milliseconds(2);
  return cfg;
}

struct Artifacts {
  std::string results;
  std::string telemetry;
  std::string decisions;
  std::string flows;
  std::uint64_t promotions = 0;
};

Artifacts run_once(exp::FabricScenarioConfig cfg) {
  exp::FabricScenario fs(std::move(cfg));
  Artifacts a;
  const exp::FabricScenarioResults r = fs.run();
  a.results = serialize(r);
  a.promotions = r.promotions;
  std::ostringstream t;
  fs.telemetry().write_csv(t);
  a.telemetry = t.str();
  std::ostringstream d;
  fs.decisions().write_csv(d);
  a.decisions = d.str();
  std::ostringstream f;
  fs.flow_stats().write_csv(f);
  a.flows = f.str();
  return a;
}

TEST(FidelityTest, AutoModeRepeatedRunsAreByteIdentical) {
  const Artifacts a = run_once(auto_cfg());
  const Artifacts b = run_once(auto_cfg());
  EXPECT_GE(a.promotions, 1u) << "all-to-all auto run should promote analytic hosts";
  EXPECT_EQ(a.results, b.results);
  EXPECT_FALSE(a.telemetry.empty());
  EXPECT_EQ(a.telemetry, b.telemetry);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.flows, b.flows);
  // Promotions are observable in the decision log and the tier census.
  EXPECT_NE(a.decisions.find("promote"), std::string::npos);
  EXPECT_NE(a.telemetry.find("hosts_analytic"), std::string::npos);
}

TEST(FidelityTest, AutoModeIsShardInvariant) {
  exp::FabricScenarioConfig cfg = auto_cfg();
  cfg.shards = 1;
  const Artifacts a = run_once(cfg);
  cfg.shards = 2;
  const Artifacts b = run_once(cfg);
  EXPECT_GE(a.promotions, 1u);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.telemetry, b.telemetry);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.flows, b.flows);
}

// The incast victim starts analytic (nothing pinned), promotes while the
// incast is in full swing, and the receiver-side state transfer loses no
// bytes: every closed-loop message of every flow completes and is
// delivered exactly once, with all conservation ledgers balanced. The same
// closed-loop cap holds under --fidelity full, where every slot is pinned
// full from the start.
TEST(FidelityTest, PromotionMidIncastTransfersStateExactly) {
  for (const exp::HostFidelity mode : {exp::HostFidelity::kAuto, exp::HostFidelity::kFull}) {
    SCOPED_TRACE(exp::host_fidelity_name(mode));
    exp::FabricScenarioConfig cfg;
    cfg.topology = "leaf-spine:2x4";
    cfg.fidelity = mode;
    cfg.congested_hosts = 0;  // nothing pinned: the victim must earn its tier
    cfg.promote_threshold = 32 * 1024;
    cfg.flow_bytes = 64 * 1024;
    cfg.messages_per_flow = 4;
    cfg.record_flow_stats = true;
    cfg.warmup = sim::Time::milliseconds(1);
    cfg.measure = sim::Time::milliseconds(6);
    exp::FabricScenario fs(cfg);
    const exp::FabricScenarioResults r = fs.run();

    EXPECT_EQ(r.invariant_violations, 0u);

    // 7 senders x 2 flows, ids 100.. : each must deliver exactly
    // messages_per_flow * flow_bytes to the victim, across both tiers.
    const sim::Bytes expect_bytes = 4 * 64 * 1024;
    net::FlowId fid = 100;
    for (int src = 1; src < 8; ++src) {
      for (int k = 0; k < cfg.flows_per_pair; ++k) {
        EXPECT_EQ(fs.slot(0).delivered_bytes(fid + k), expect_bytes)
            << "flow " << (fid + k) << " from h" << src;
      }
      fid += static_cast<net::FlowId>(cfg.flows_per_pair);
    }
    if (mode == exp::HostFidelity::kFull) {
      EXPECT_TRUE(fs.slot(0).full_active());
      EXPECT_EQ(r.promotions + r.demotions, 0u);
      continue;
    }

    EXPECT_GE(r.promotions, 1u);
    EXPECT_GE(fs.slot(0).promotions(), 1u) << "the incast victim should promote";
    // With the messages drained, the quiescence window demotes the victim
    // back to the flow-level tier and parks the packet-level kit (its 50ns
    // memory-controller lane stops).
    EXPECT_GE(r.demotions, 1u);
    EXPECT_FALSE(fs.slot(0).full_active());
    ASSERT_NE(fs.slot(0).full_host(), nullptr);
    EXPECT_TRUE(fs.slot(0).full_host()->parked());
  }
}

TEST(FidelityTest, AnalyticRejectsControllerWithTierNamed) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x4";
  cfg.fidelity = exp::HostFidelity::kAnalytic;
  cfg.hostcc_enabled = true;
  try {
    exp::FabricScenario fs(cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("analytic-tier"), std::string::npos) << e.what();
  }
}

TEST(FidelityTest, AnalyticRejectsHostSurfaceFaultsWithTierNamed) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x4";
  cfg.fidelity = exp::HostFidelity::kAnalytic;
  ASSERT_FALSE(cfg.faults.add_spec("msr_stall@100+100").has_value());
  try {
    exp::FabricScenario fs(cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("MSR bank"), std::string::npos) << msg;
    EXPECT_NE(msg.find("analytic-tier"), std::string::npos) << msg;
  }
}

TEST(FidelityTest, AnalyticRejectsPauseStormOnHostUplinkWithTierNamed) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x4";
  cfg.fidelity = exp::HostFidelity::kAnalytic;
  cfg.lossless = true;
  ASSERT_FALSE(cfg.faults.add_spec("pause_storm@100+100:0:h3-leaf0").has_value());
  try {
    exp::FabricScenario fs(cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("h3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("analytic-tier"), std::string::npos) << msg;
  }
}

// A pause storm aimed at an analytic host's uplink cannot back-pressure
// the flow-level tier; under auto the FidelityManager must force the host
// onto the full tier instead of silently no-opping the fault.
TEST(FidelityTest, PauseStormForcesPromotionUnderAuto) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x4";
  cfg.fidelity = exp::HostFidelity::kAuto;
  cfg.lossless = true;
  ASSERT_FALSE(cfg.faults.add_spec("pause_storm@1500+500:0:h3-leaf0").has_value());
  cfg.warmup = sim::Time::milliseconds(1);
  cfg.measure = sim::Time::milliseconds(3);
  exp::FabricScenario fs(cfg);
  const exp::FabricScenarioResults r = fs.run();
  EXPECT_GE(fs.slot(3).promotions(), 1u)
      << "the paused host must escalate to the packet-level tier";
  EXPECT_EQ(r.invariant_violations, 0u);
}

}  // namespace
}  // namespace hostcc

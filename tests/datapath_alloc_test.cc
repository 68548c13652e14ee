// Steady-state zero-allocation pin for the packet datapath. Runs a real
// Scenario (sender NIC -> wire -> switch -> receiver NIC -> PCIe -> IIO ->
// MC -> CPU -> transport, with DCTCP ACK clocking back the other way) past
// warmup, then arms the global operator-new hook and asserts that a warm
// measurement slice performs no heap allocation at all: packets live in
// the slab pool, FIFOs are rings at their high-water marks, events fit the
// slab's inline storage, and the transport's segment maps recycle pmr
// pool-resource nodes.
#include <gtest/gtest.h>

#include <utility>

#include "alloc_hook.h"
#include "exp/fabric_scenario.h"
#include "exp/scenario.h"

namespace hostcc::exp {
namespace {

// Long enough for slow start, the initial drop burst, and every container
// to reach its high-water mark; short enough to keep the test snappy.
ScenarioConfig warm_cfg() {
  ScenarioConfig cfg;
  cfg.warmup = sim::Time::milliseconds(20);
  cfg.measure = sim::Time::milliseconds(5);
  return cfg;
}

void ExpectZeroAllocSlice(ScenarioConfig cfg) {
  Scenario s(std::move(cfg));
  s.run_warmup();
  // Extra settling slice: warmup ends mid-flight, so give retransmission
  // state and periodic timers one more window to reach steady state.
  s.run_for(sim::Time::milliseconds(5));

  const auto before = s.receiver().nic().stats();
  hostcc::testing::reset_alloc_count();
  hostcc::testing::set_alloc_counting(true);
  s.run_for(sim::Time::milliseconds(2));
  hostcc::testing::set_alloc_counting(false);
  const auto after = s.receiver().nic().stats();

  EXPECT_EQ(hostcc::testing::alloc_count(), 0u)
      << "warm datapath slice hit the heap";
  // The armed window must have carried real traffic, or the assertion
  // above is vacuous. ~2 ms at 100 Gbps is thousands of full-MTU packets.
  EXPECT_GT(after.arrived_pkts - before.arrived_pkts, 1000u);
}

TEST(DatapathAllocTest, WarmScenarioSliceDoesNotAllocate) {
  ExpectZeroAllocSlice(warm_cfg());
}

TEST(DatapathAllocTest, WarmScenarioSliceWithHostCcDoesNotAllocate) {
  ScenarioConfig cfg = warm_cfg();
  cfg.hostcc_enabled = true;
  cfg.mapp_degree = 2.0;  // contended: MBA decisions actually move
  ExpectZeroAllocSlice(std::move(cfg));
}

// Multi-switch hop: a warm slice crossing leaf -> spine -> leaf (shared-
// buffer DT admission, ECMP pick, inter-switch delivery) must be
// just as heap-free as the single-star path.
TEST(DatapathAllocTest, WarmFabricSliceAcrossTwoSwitchHopsDoesNotAllocate) {
  FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x1";  // h0-leaf0-{spine0,spine1}-leaf1-h1
  cfg.warmup = sim::Time::milliseconds(20);
  cfg.measure = sim::Time::milliseconds(5);
  FabricScenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));

  const auto before = s.host(0).nic().stats();
  hostcc::testing::reset_alloc_count();
  hostcc::testing::set_alloc_counting(true);
  s.run_for(sim::Time::milliseconds(2));
  hostcc::testing::set_alloc_counting(false);
  const auto after = s.host(0).nic().stats();

  EXPECT_EQ(hostcc::testing::alloc_count(), 0u)
      << "warm fabric datapath slice hit the heap";
  EXPECT_GT(after.arrived_pkts - before.arrived_pkts, 1000u);
}

// Flow churn: the workload engine opens and retires thousands of
// short-lived connections through the pooled stacks. Past warmup the churn
// must be heap-free too: endpoint opens are free-list node rebinds, closes
// park the node (quiescing the lazy timers without cancelling events), the
// completion/FIN callbacks fit std::function's small buffer, and the
// FlowStats episode records reuse warm hash-map slots.
TEST(DatapathAllocTest, WarmWorkloadChurnSliceDoesNotAllocate) {
  FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x2";
  cfg.warmup = sim::Time::milliseconds(20);
  cfg.measure = sim::Time::milliseconds(5);
  cfg.workload.enabled = true;
  cfg.workload.load = 0.5;
  cfg.workload.size_dist = "fixed:16384";
  cfg.workload.slots_per_pair = 16;
  cfg.workload.reuse_cooldown = sim::Time::microseconds(50);
  FabricScenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));

  const auto completed = [&s] {
    std::uint64_t n = 0;
    for (int i = 0; s.host_workload(i) != nullptr; ++i) {
      n += s.host_workload(i)->flows_completed();
    }
    return n;
  };
  const std::uint64_t before = completed();

  hostcc::testing::reset_alloc_count();
  hostcc::testing::set_alloc_counting(true);
  s.run_for(sim::Time::milliseconds(2));
  hostcc::testing::set_alloc_counting(false);

  EXPECT_EQ(hostcc::testing::alloc_count(), 0u) << "warm churn slice hit the heap";
  // The armed window must have churned real connections (message completes
  // + FIN retires), and the whole run must cover thousands of episodes —
  // otherwise the zero above is vacuous.
  EXPECT_GT(completed() - before, 100u);
  EXPECT_GE(completed(), 5000u);
}

}  // namespace
}  // namespace hostcc::exp

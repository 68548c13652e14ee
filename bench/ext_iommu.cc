// Extension experiment (§6): IOMMU-induced host congestion. IOTLB misses
// stall inbound DMA writes regardless of memory-controller load, so host
// congestion appears *without any MApp* — the PCIe underutilization case
// the paper attributes to memory-protection hardware [1, 9].
//
// hostCC's IIO-occupancy signal still observes the congestion (the stalls
// inflate residence), and the ECN echo still moderates the senders — but
// the host-local response has no host-local traffic to throttle, which is
// exactly why §6 calls for additional signals/actuators for this case.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;

  std::printf("=== Extension: IOMMU-induced host congestion (no MApp) ===\n\n");

  exp::Table t({"iotlb_miss_rate", "mode", "net_tput_gbps", "drop_rate_pct", "avg_IS",
                "avg_BS_gbps"});
  for (const double miss : {0.0, 0.2, 0.4, 0.6}) {
    for (const bool hostcc : {false, true}) {
      exp::ScenarioConfig cfg;
      cfg.mapp_degree = 0.0;  // no memory contention at all
      cfg.host.iommu_enabled = miss > 0.0;
      cfg.host.iotlb_miss_rate = miss;
      cfg.hostcc_enabled = hostcc;
      cfg.record_signals = true;
      if (quick) {
        cfg.warmup = sim::Time::milliseconds(60);
        cfg.measure = sim::Time::milliseconds(60);
      }
      exp::Scenario s(cfg);
      const auto r = s.run();
      t.add_row({exp::fmt(miss, 1), hostcc ? "dctcp+hostcc" : "dctcp",
                 exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct),
                 exp::fmt(r.avg_iio_occupancy, 1), exp::fmt(r.avg_pcie_gbps, 1)});
    }
  }
  t.print();

  std::printf("\n(IOTLB stalls inflate IIO residence: I_S rises and B_S falls with the\n"
              " miss rate even though DRAM is idle; the ECN echo still tames drops.)\n");
  return 0;
}

// Figure 2 reproduction: host congestion (0x..3x MApp intensity) vs.
// network throughput, packet drop rate, and the memory-bandwidth split
// between NetApp-T and MApp — with DDIO disabled and enabled.
// Paper: throughput 100 -> ~43Gbps at 3x (DDIO off), drops up to ~0.3%,
// MApp acquiring an increasing share of memory bandwidth.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;

  std::printf("=== Figure 2: impact of host congestion on network traffic ===\n");
  std::printf("Setup: NetApp-T (4 DCTCP flows, 100Gbps) + MApp sweep at the receiver.\n\n");

  for (const bool ddio : {false, true}) {
    exp::Table t({"degree", "ddio", "net_tput_gbps", "drop_rate_pct", "netapp_mem_util",
                  "mapp_mem_util", "total_mem_util", "avg_IS", "avg_BS_gbps"});
    for (const double degree : {0.0, 1.0, 2.0, 3.0}) {
      exp::ScenarioConfig cfg;
      cfg.host.ddio_enabled = ddio;
      cfg.mapp_degree = degree;
      cfg.record_signals = true;
      if (quick) {
        cfg.warmup = sim::Time::milliseconds(60);
        cfg.measure = sim::Time::milliseconds(60);
      }
      exp::Scenario s(cfg);
      const auto r = s.run();
      t.add_row({exp::fmt(degree, 0) + "x", ddio ? "on" : "off", exp::fmt(r.net_tput_gbps),
                 exp::fmt_rate(r.host_drop_rate_pct), exp::fmt(r.net_mem_util),
                 exp::fmt(r.mapp_mem_util), exp::fmt(r.mem_util), exp::fmt(r.avg_iio_occupancy, 1),
                 exp::fmt(r.avg_pcie_gbps, 1)});
    }
    t.print();
    std::printf("\n");
  }

  std::printf("(Paper, DDIO off: tput ~100/85/60/43 Gbps; drops reaching ~0.3%%;\n"
              " MApp memory share growing with degree while NetApp-T's shrinks.)\n");
  return 0;
}

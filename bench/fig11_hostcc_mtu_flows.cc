// Figure 11 reproduction: hostCC benefits across MTU sizes and flow counts
// at 3x host congestion (DDIO off).
// Paper: hostCC maintains ~B_T throughput and orders-of-magnitude lower
// drop rates for every MTU and flow count.
#include <cstdio>
#include <string>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;

  std::printf("=== Figure 11: hostCC across MTU and flow count (3x, DDIO off) ===\n\n");

  auto make_cfg = [&](bool hostcc) {
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = 3.0;
    cfg.hostcc_enabled = hostcc;
    if (quick) {
      cfg.warmup = sim::Time::milliseconds(60);
      cfg.measure = sim::Time::milliseconds(60);
    }
    return cfg;
  };

  std::printf("-- MTU sweep, 4 flows --\n");
  exp::Table tm({"mtu", "mode", "net_tput_gbps", "drop_rate_pct"});
  for (const sim::Bytes mtu : {1500, 4000, 9000}) {
    for (const bool hostcc : {false, true}) {
      exp::ScenarioConfig cfg = make_cfg(hostcc);
      cfg.transport.mtu = mtu;
      exp::Scenario s(cfg);
      const auto r = s.run();
      tm.add_row({std::to_string(mtu) + "B", hostcc ? "dctcp+hostcc" : "dctcp",
                  exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct)});
    }
  }
  tm.print();

  std::printf("\n-- flow-count sweep, 4000B MTU --\n");
  exp::Table tf({"flows", "mode", "net_tput_gbps", "drop_rate_pct"});
  for (const int flows : {4, 8, 16}) {
    for (const bool hostcc : {false, true}) {
      exp::ScenarioConfig cfg = make_cfg(hostcc);
      cfg.netapp_flows = flows;
      exp::Scenario s(cfg);
      const auto r = s.run();
      tf.add_row({std::to_string(flows), hostcc ? "dctcp+hostcc" : "dctcp",
                  exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct)});
    }
  }
  tf.print();

  std::printf("\n(Paper: hostCC holds ~B_T and near-zero drops across all MTUs/flows.)\n");
  return 0;
}

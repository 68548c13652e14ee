// Figure 13 reproduction: hostCC under network fabric congestion (incast,
// two senders -> one receiver) — (a) network congestion only, (b) host +
// network congestion — with the degree of incast (total concurrent flows)
// varied from 4 to 10 (1x..2.5x).
// Paper: without host congestion, hostCC == plain network CC (minimal
// overhead); with both congestion types, hostCC restores ~B_T throughput
// and cuts drops by orders of magnitude.
#include <cstdio>
#include <string>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;

  std::printf("=== Figure 13: incast (network congestion), +/- host congestion ===\n\n");

  for (const double degree : {0.0, 3.0}) {
    std::printf("-- %s --\n",
                degree == 0.0 ? "(a) network congestion only" : "(b) host + network congestion");
    exp::Table t({"incast", "flows", "mode", "net_tput_gbps", "drop_total_pct", "drop_host_pct",
                  "drop_fabric_pct"});
    for (const int flows : {4, 6, 8, 10}) {
      for (const bool hostcc : {false, true}) {
        exp::ScenarioConfig cfg;
        cfg.senders = 2;
        cfg.netapp_flows = flows;
        cfg.mapp_degree = degree;
        cfg.hostcc_enabled = hostcc;
        if (quick) {
          cfg.warmup = sim::Time::milliseconds(60);
          cfg.measure = sim::Time::milliseconds(60);
        }
        exp::Scenario s(cfg);
        const auto r = s.run();
        t.add_row({exp::fmt(flows / 4.0, 2) + "x", std::to_string(flows),
                   hostcc ? "dctcp+hostcc" : "dctcp", exp::fmt(r.net_tput_gbps),
                   exp::fmt_rate(r.drop_rate_pct), exp::fmt_rate(r.host_drop_rate_pct),
                   exp::fmt_rate(r.fabric_drop_rate_pct)});
      }
    }
    t.print();
    std::printf("\n");
  }

  std::printf("(Paper: (a) hostCC tracks network CC exactly; (b) hostCC keeps ~B_T\n"
              " throughput and low drop rates despite both congestion types.)\n");
  return 0;
}

// Figure 3 reproduction: impact of host congestion vs. MTU size
// {1500, 4000, 9000} and number of active flows {4, 8, 16}, at 3x host
// congestion, DDIO on/off.
// Paper: drop rates grow with MTU and flow count; DDIO-enabled suffers
// more than disabled at large MTU / many flows (higher eviction rates),
// while DDIO-off gains a little throughput from cheaper per-packet CPU.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"
#include "sim/sweep_runner.h"

using namespace hostcc;

namespace {

exp::ScenarioConfig base_config(bool ddio, bool quick) {
  exp::ScenarioConfig cfg;
  cfg.host.ddio_enabled = ddio;
  cfg.mapp_degree = 3.0;
  if (quick) {
    cfg.warmup = sim::Time::milliseconds(60);
    cfg.measure = sim::Time::milliseconds(60);
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchOpts opts = exp::parse_bench_opts_or_die(argc, argv, {"--jobs"});
  const sim::SweepRunner runner(opts.jobs);

  std::printf("=== Figure 3: MTU size and flow count under 3x host congestion ===\n\n");

  // Both panels' configurations run as one parallel sweep.
  struct Point {
    bool mtu_panel;
    bool ddio;
    sim::Bytes mtu = 4000;
    int flows = 4;
  };
  std::vector<Point> points;
  for (const bool ddio : {false, true}) {
    for (const sim::Bytes mtu : {1500, 4000, 9000}) {
      points.push_back({.mtu_panel = true, .ddio = ddio, .mtu = mtu});
    }
  }
  for (const bool ddio : {false, true}) {
    for (const int flows : {4, 8, 16}) {
      points.push_back({.mtu_panel = false, .ddio = ddio, .flows = flows});
    }
  }

  std::vector<std::function<exp::ScenarioResults()>> tasks;
  for (const Point& pt : points) {
    tasks.emplace_back([pt, quick = opts.quick] {
      exp::ScenarioConfig cfg = base_config(pt.ddio, quick);
      if (pt.mtu_panel) {
        cfg.transport.mtu = pt.mtu;
      } else {
        cfg.netapp_flows = pt.flows;
      }
      exp::Scenario s(cfg);
      return s.run();
    });
  }
  const auto results = runner.run(std::move(tasks));

  exp::Table tm({"mtu", "ddio", "net_tput_gbps", "drop_rate_pct"});
  exp::Table tf({"flows", "ddio", "net_tput_gbps", "drop_rate_pct"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const auto& r = results[i];
    if (pt.mtu_panel) {
      tm.add_row({std::to_string(pt.mtu) + "B", pt.ddio ? "on" : "off",
                  exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct)});
    } else {
      tf.add_row({std::to_string(pt.flows), pt.ddio ? "on" : "off", exp::fmt(r.net_tput_gbps),
                  exp::fmt_rate(r.host_drop_rate_pct)});
    }
  }
  std::printf("-- (left) MTU sweep, 4 flows --\n");
  tm.print();
  std::printf("\n-- (right) flow-count sweep, 4000B MTU --\n");
  tf.print();

  std::printf("\n(Paper: drop rate grows with MTU and flow count; DDIO-on overtakes\n"
              " DDIO-off in drops at 9000B / 16 flows.)\n");
  return 0;
}

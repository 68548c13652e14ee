// Figure 9 reproduction: efficacy of the MBA actuator. Each host-local
// response level is hard-coded (no hostCC control loop) under 3x host
// congestion; more backpressure on MApp frees host resources for NetApp-T.
// Paper: NetApp-T throughput rises ~43 -> ~77 (level 3) -> ~100Gbps
// (level 4 = pause), MApp throughput falls correspondingly; DDIO-enabled
// reaches line rate already at level 3.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/mem_app.h"
#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"
#include "sim/sweep_runner.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const exp::BenchOpts opts = exp::parse_bench_opts_or_die(argc, argv, {"--jobs"});

  std::printf("=== Figure 9: hard-coded host-local response levels (MBA) ===\n");
  std::printf("Setup: NetApp-T + MApp 3x; MBA level fixed per run.\n\n");

  struct Point {
    bool ddio;
    int level;
  };
  std::vector<Point> points;
  for (const bool ddio : {false, true}) {
    for (int level = 0; level <= 4; ++level) points.push_back({ddio, level});
  }

  // The MApp app-level throughput derives from the run's memory bandwidth
  // and the (per-point) host config, so compute it inside the task.
  struct Row {
    exp::ScenarioResults r;
    double mapp_app_gbps = 0.0;
  };
  std::vector<std::function<Row()>> tasks;
  for (const Point& pt : points) {
    tasks.emplace_back([pt, quick = opts.quick] {
      exp::ScenarioConfig cfg;
      cfg.host.ddio_enabled = pt.ddio;
      cfg.mapp_degree = 3.0;
      cfg.fixed_mba_level = pt.level;
      if (quick) {
        cfg.warmup = sim::Time::milliseconds(60);
        cfg.measure = sim::Time::milliseconds(60);
      }
      exp::Scenario s(cfg);
      Row row;
      row.r = s.run();
      row.mapp_app_gbps =
          apps::MemApp::app_throughput_gbps(sim::Bandwidth::gbps(row.r.mapp_mem_gbps), cfg.host);
      return row;
    });
  }
  const auto rows = sim::SweepRunner(opts.jobs).run(std::move(tasks));

  for (const bool ddio : {false, true}) {
    exp::Table t({"level", "ddio", "netapp_tput_gbps", "mapp_tput_gbps", "netapp_mem_util",
                  "mapp_mem_util", "total_mem_util"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].ddio != ddio) continue;
      const auto& [r, mapp_app] = rows[i];
      t.add_row({std::to_string(points[i].level), ddio ? "on" : "off", exp::fmt(r.net_tput_gbps),
                 exp::fmt(mapp_app), exp::fmt(r.net_mem_util), exp::fmt(r.mapp_mem_util),
                 exp::fmt(r.mem_util)});
    }
    t.print();
    std::printf("\n");
  }

  std::printf("(Paper, DDIO off: NetApp-T ~43/.../77 Gbps at levels 0..3, ~100 at level 4;\n"
              " DDIO on reaches line rate already at level 3.)\n");
  return 0;
}

// Figure 16 reproduction: hostCC sensitivity to the target network
// bandwidth B_T (10..100Gbps) at 3x host congestion, DDIO off.
// Paper: achieved throughput tracks B_T while drops stay minimal across
// the whole range (lowest at small and large B_T); MApp memory share
// shrinks as B_T grows.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"
#include "sim/sweep_runner.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const exp::BenchOpts opts = exp::parse_bench_opts_or_die(argc, argv, {"--jobs"});

  std::printf("=== Figure 16: sensitivity to target network bandwidth B_T (3x, I_T=70) ===\n\n");

  std::vector<int> bts;
  for (int bt = 10; bt <= 100; bt += opts.quick ? 20 : 10) bts.push_back(bt);

  std::vector<std::function<exp::ScenarioResults()>> tasks;
  for (const int bt : bts) {
    tasks.emplace_back([bt, quick = opts.quick] {
      exp::ScenarioConfig cfg;
      cfg.mapp_degree = 3.0;
      cfg.hostcc_enabled = true;
      cfg.hostcc.target_bandwidth = sim::Bandwidth::gbps(bt);
      cfg.record_signals = true;
      if (quick) {
        cfg.warmup = sim::Time::milliseconds(60);
        cfg.measure = sim::Time::milliseconds(60);
      }
      exp::Scenario s(cfg);
      return s.run();
    });
  }
  const auto results = sim::SweepRunner(opts.jobs).run(std::move(tasks));

  exp::Table t({"B_T_gbps", "net_tput_gbps", "drop_rate_pct", "netapp_mem_util",
                "mapp_mem_util", "avg_IS", "avg_BS_gbps"});
  for (std::size_t i = 0; i < bts.size(); ++i) {
    const auto& r = results[i];
    t.add_row({std::to_string(bts[i]), exp::fmt(r.net_tput_gbps),
               exp::fmt_rate(r.host_drop_rate_pct), exp::fmt(r.net_mem_util),
               exp::fmt(r.mapp_mem_util), exp::fmt(r.avg_iio_occupancy, 1),
               exp::fmt(r.avg_pcie_gbps, 1)});
  }
  t.print();

  std::printf("\n(Paper: throughput tracks B_T; drops minimal across all B_T; MApp only\n"
              " backpressured as much as needed.)\n");
  return 0;
}

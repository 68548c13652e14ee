// Figure 17 reproduction: hostCC sensitivity to the IIO occupancy
// threshold I_T (70..90) at 3x host congestion, DDIO off.
// Paper: larger I_T reacts later to congestion onset — drop rates grow
// with I_T, and MApp keeps a larger memory share (less backpressure).
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

  std::printf("=== Figure 17: sensitivity to IIO threshold I_T (3x, B_T=80Gbps) ===\n\n");

  std::vector<int> its;
  for (int it = 70; it <= 90; it += 5) its.push_back(it);

  std::vector<std::function<exp::ScenarioResults()>> tasks;
  for (const int it : its) {
    tasks.emplace_back([it, quick = opts.quick] {
      exp::ScenarioConfig cfg;
      cfg.mapp_degree = 3.0;
      cfg.hostcc_enabled = true;
      cfg.hostcc.iio_threshold = it;
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

  exp::Table t({"I_T", "net_tput_gbps", "drop_rate_pct", "netapp_mem_util", "mapp_mem_util",
                "avg_IS", "avg_BS_gbps"});
  for (std::size_t i = 0; i < its.size(); ++i) {
    const auto& r = results[i];
    t.add_row({std::to_string(its[i]), exp::fmt(r.net_tput_gbps),
               exp::fmt_rate(r.host_drop_rate_pct), exp::fmt(r.net_mem_util),
               exp::fmt(r.mapp_mem_util), exp::fmt(r.avg_iio_occupancy, 1),
               exp::fmt(r.avg_pcie_gbps, 1)});
  }
  t.print();

  std::printf("\n(Paper: drops grow with I_T; MApp acquires more bandwidth with larger I_T.)\n");
  return 0;
}

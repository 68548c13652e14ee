// Figure 19 reproduction: hostCC steady-state behaviour over a 250us
// window at 3x host congestion — measured PCIe bandwidth vs. B_T, the
// host-local response level, and the IIO occupancy vs. I_T.
// Paper: PCIe bandwidth hugs B_T (+overheads ~84Gbps), the level
// oscillates between 3 and 4, and I_S stays near/below I_T = 70.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool csv = exp::parse_bench_opts_or_die(argc, argv, {"--csv"}).csv;

  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 3.0;
  cfg.hostcc_enabled = true;
  cfg.record_signals = true;
  cfg.warmup = sim::Time::milliseconds(250);
  cfg.measure = sim::Time::milliseconds(2);

  exp::Scenario s(cfg);
  s.run_warmup();
  const sim::Time t0 = s.simulator().now();
  s.run_for(sim::Time::microseconds(250));
  const sim::Time t1 = s.simulator().now();

  if (csv) {
    std::printf("time_us,pcie_gbps,level,iio_occ\n");
    const auto& bs = s.bs_series().samples();
    const auto& lvl = s.level_series().samples();
    const auto& is = s.is_series().samples();
    for (std::size_t i = 0; i < bs.size(); ++i) {
      if (bs[i].t < t0 || bs[i].t > t1) continue;
      std::printf("%.2f,%.2f,%.0f,%.1f\n", (bs[i].t - t0).us(), bs[i].value, lvl[i].value,
                  is[i].value);
    }
    return 0;
  }

  std::printf("=== Figure 19: hostCC steady state over 250us (3x congestion) ===\n\n");
  // 25us-binned series, like reading values off the paper's plots.
  exp::Table t({"t_us", "pcie_bw_gbps", "response_level", "iio_occupancy"});
  for (int bin = 0; bin < 10; ++bin) {
    const sim::Time a = t0 + sim::Time::microseconds(25.0 * bin);
    const sim::Time b = a + sim::Time::microseconds(25);
    t.add_row({exp::fmt(25.0 * bin, 0), exp::fmt(s.bs_series().mean_over(a, b), 1),
               exp::fmt(s.level_series().mean_over(a, b), 2),
               exp::fmt(s.is_series().mean_over(a, b), 1)});
  }
  t.print();

  const double frac_above_it = s.is_series().fraction_above(t0, t1, 70.0);
  std::printf("\nwindow mean PCIe BW: %.1f Gbps (B_T+overheads ~84);  I_S>I_T fraction: %.2f\n",
              s.bs_series().mean_over(t0, t1), frac_above_it);
  std::printf("level histogram:");
  for (int l = 0; l <= 4; ++l) {
    std::size_t n = 0, tot = 0;
    for (const auto& sm : s.level_series().samples()) {
      if (sm.t < t0 || sm.t > t1) continue;
      ++tot;
      if (static_cast<int>(sm.value) == l) ++n;
    }
    std::printf("  L%d=%.0f%%", l, tot ? 100.0 * n / tot : 0.0);
  }
  std::printf("\n(Paper: level oscillates between 3 and 4; PCIe BW ~84Gbps; I_S near I_T.)\n");
  return 0;
}

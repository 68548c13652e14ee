// Figure 8 reproduction: IIO occupancy I_S and PCIe bandwidth B_S over a
// 1ms window, without host congestion (left) and at 3x (right), no hostCC.
// Paper: idle — B_S ~103Gbps (line rate incl. PCIe overheads at 4K MTU)
// and I_S ~65 (IIO-DRAM bandwidth-delay product); at 3x — I_S climbs to
// its ~93-line maximum (the PCIe credit limit) and B_S collapses.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool csv = exp::parse_bench_opts_or_die(argc, argv, {"--csv"}).csv;

  std::printf("=== Figure 8: I_S and B_S over 1ms, without/with 3x host congestion ===\n\n");

  for (const double degree : {0.0, 3.0}) {
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = degree;
    cfg.record_signals = true;
    cfg.warmup = sim::Time::milliseconds(degree > 0 ? 250 : 40);
    exp::Scenario s(cfg);
    s.run_warmup();
    const sim::Time t0 = s.simulator().now();
    s.run_for(sim::Time::milliseconds(1));
    const sim::Time t1 = s.simulator().now();

    std::printf("-- %s host congestion --\n", degree == 0.0 ? "no" : "3x");
    if (csv) {
      const auto& bsv = s.bs_series().samples();
      const auto& isv = s.is_series().samples();
      std::printf("time_us,pcie_gbps,iio_occ\n");
      for (std::size_t i = 0; i < bsv.size(); ++i) {
        if (bsv[i].t < t0) continue;
        std::printf("%.2f,%.2f,%.1f\n", (bsv[i].t - t0).us(), bsv[i].value, isv[i].value);
      }
      continue;
    }
    exp::Table t({"t_us", "pcie_bw_gbps", "iio_occupancy"});
    for (int bin = 0; bin < 10; ++bin) {
      const sim::Time a = t0 + sim::Time::microseconds(100.0 * bin);
      const sim::Time b = a + sim::Time::microseconds(100);
      t.add_row({exp::fmt(100.0 * bin, 0), exp::fmt(s.bs_series().mean_over(a, b), 1),
                 exp::fmt(s.is_series().mean_over(a, b), 1)});
    }
    t.print();
    std::printf("window: mean B_S %.1f Gbps, mean I_S %.1f, max I_S %.1f\n\n",
                s.bs_series().mean_over(t0, t1), s.is_series().mean_over(t0, t1),
                s.is_series().max_over(t0, t1));
  }

  std::printf("(Paper: idle B_S~103/I_S~65; at 3x I_S saturates near 93 and B_S drops,\n"
              " with sawtooth excursions from the network CC reacting to drops.)\n");
  return 0;
}

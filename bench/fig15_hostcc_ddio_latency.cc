// Figure 15 reproduction: Figure 12 (RPC tail latency with hostCC) with
// DDIO enabled. Paper: identical benefits to the DDIO-off case, since
// drop rates at 3x are similar with DDIO on/off.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;
  const std::vector<sim::Bytes> sizes = {128, 512, 2048, 8192, 32768};

  std::printf("=== Figure 15: hostCC tail-latency benefits, DDIO enabled (I_T=50) ===\n\n");

  struct Mode {
    const char* name;
    double degree;
    bool hostcc;
  };
  const Mode modes[] = {{"dctcp (no congestion)", 0.0, false},
                        {"dctcp (3x congestion)", 3.0, false},
                        {"dctcp+hostcc (3x congestion)", 3.0, true}};

  for (const Mode& m : modes) {
    std::printf("-- %s --\n", m.name);
    exp::ScenarioConfig cfg;
    cfg.host.ddio_enabled = true;
    cfg.mapp_degree = m.degree;
    cfg.hostcc_enabled = m.hostcc;
    cfg.hostcc.iio_threshold = 50.0;
    cfg.rpc_sizes = sizes;
    cfg.warmup = sim::Time::milliseconds(quick ? 150 : 300);
    cfg.measure = sim::Time::milliseconds(quick ? 800 : 3000);
    exp::Scenario s(cfg);
    const auto r = s.run();
    exp::Table t({"rpc_size", "count", "p50_us", "p90_us", "p99_us", "p99.9_us", "p99.99_us"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& l = r.rpc_latency[i];
      t.add_row({std::to_string(sizes[i]) + "B", std::to_string(l.count),
                 exp::fmt(l.p50.us(), 1), exp::fmt(l.p90.us(), 1), exp::fmt(l.p99.us(), 1),
                 exp::fmt(l.p999.us(), 1), exp::fmt(l.p9999.us(), 1)});
    }
    t.print();
    std::printf("\n");
  }

  std::printf("(Paper: latency distributions identical to the DDIO-off Fig. 12.)\n");
  return 0;
}

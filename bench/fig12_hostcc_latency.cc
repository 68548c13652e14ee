// Figure 12 reproduction: NetApp-L latency percentiles at 3x host
// congestion with DCTCP vs DCTCP+hostCC (DDIO off), all apps together.
// Paper: hostCC restores near-uncongested tails — ~13us P99 inflation for
// 128B RPCs and no timeouts even at P99.9.
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

  std::printf("=== Figure 12: hostCC tail-latency benefits (3x, DDIO off) ===\n\n");

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
    cfg.mapp_degree = m.degree;
    cfg.hostcc_enabled = m.hostcc;
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

  std::printf("(Paper: hostCC's P99 inflation vs. no-congestion is ~13us for 128B RPCs\n"
              " and there are no 200ms timeout tails at P99.9.)\n");
  return 0;
}

// Figure 4 reproduction: NetApp-L (netperf-RR style) latency percentiles
// with and without host congestion, with NetApp-T and MApp running
// concurrently, DDIO disabled.
// Paper: P50 grows modestly; P99 inflation is ~60-100us (NIC queueing);
// P99.9 jumps to ~200ms for small RPCs (Linux min RTO — a single dropped
// response packet cannot be probed), while larger RPCs are saved by TLP.
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

  std::printf("=== Figure 4: RPC tail latency with/without host congestion (DDIO off) ===\n");
  std::printf("Setup: NetApp-T + NetApp-L + MApp together; latencies in microseconds.\n\n");

  for (const double degree : {0.0, 3.0}) {
    std::printf("-- %s host congestion --\n", degree == 0.0 ? "no" : "3x");
    exp::Table t({"rpc_size", "count", "p50_us", "p90_us", "p99_us", "p99.9_us", "p99.99_us"});
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = degree;
    cfg.rpc_sizes = sizes;
    // Tail percentiles need many RPCs and must observe 200ms RTO events.
    cfg.warmup = sim::Time::milliseconds(quick ? 150 : 300);
    cfg.measure = sim::Time::milliseconds(quick ? 800 : 3000);
    exp::Scenario s(cfg);
    const auto r = s.run();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& l = r.rpc_latency[i];
      t.add_row({std::to_string(sizes[i]) + "B", std::to_string(l.count),
                 exp::fmt(l.p50.us(), 1), exp::fmt(l.p90.us(), 1), exp::fmt(l.p99.us(), 1),
                 exp::fmt(l.p999.us(), 1), exp::fmt(l.p9999.us(), 1)});
    }
    t.print();
    std::printf("\n");
  }

  std::printf("(Paper: with 3x congestion, P99 inflates by ~60-100us and P99.9 reaches\n"
              " ~200ms (min RTO) for small RPCs; TLP saves larger RPCs.)\n");
  return 0;
}

// Ablation (DESIGN.md §5.3): how the MBA MSR write latency limits the
// host-local response. §6 of the paper identifies the measured ~22us MBA
// actuation latency as a key hardware limitation precluding finer-grained
// response; this sweep quantifies what faster (hypothetical) actuation
// hardware would buy, and what slower actuation would cost.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;

  std::printf("=== Ablation: MBA actuation latency (3x congestion, hostCC on) ===\n\n");

  exp::Table t({"msr_write_us", "net_tput_gbps", "drop_rate_pct", "mapp_mem_util",
                "level_changes_per_ms"});
  for (const double us : {1.0, 5.0, 22.0, 50.0, 100.0}) {
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = 3.0;
    cfg.hostcc_enabled = true;
    cfg.host.mba_msr_write_latency = sim::Time::microseconds(us);
    if (quick) {
      cfg.warmup = sim::Time::milliseconds(60);
      cfg.measure = sim::Time::milliseconds(60);
    }
    exp::Scenario s(cfg);
    const auto r = s.run();
    const double changes_per_ms =
        static_cast<double>(s.receiver().mba().msr_writes_issued()) / s.simulator().now().ms();
    t.add_row({exp::fmt(us, 0), exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct),
               exp::fmt(r.mapp_mem_util), exp::fmt(changes_per_ms, 1)});
  }
  t.print();

  std::printf("\n(The paper's hardware point is 22us; faster actuation allows finer\n"
              " response and better MApp utilization at equal network throughput.)\n");
  return 0;
}

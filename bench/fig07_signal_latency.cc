// Figure 7 reproduction: CDF of the I_S and B_S measurement latency, with
// and without host congestion. The reads are off the NIC-to-memory
// datapath, so the distributions are indistinguishable — the property §3.1
// claims for MSR-based signal collection.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  exp::parse_bench_opts_or_die(argc, argv);  // no options; rejects typos
  std::printf("=== Figure 7: host-signal measurement latency CDF ===\n\n");

  exp::Table t({"percentile", "IS_idle_us", "IS_3x_us", "BS_idle_us", "BS_3x_us"});
  const double qs[] = {0.10, 0.25, 0.50, 0.75, 0.90, 0.99};

  sim::Histogram is[2], bs[2];
  int idx = 0;
  for (const double degree : {0.0, 3.0}) {
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = degree;
    cfg.hostcc_enabled = true;
    cfg.warmup = sim::Time::milliseconds(40);
    cfg.measure = sim::Time::milliseconds(40);
    exp::Scenario s(cfg);
    s.run();
    is[idx].merge(s.signals().is_read_latency());
    bs[idx].merge(s.signals().bs_read_latency());
    ++idx;
  }

  for (const double q : qs) {
    t.add_row({"P" + exp::fmt(q * 100, 0), exp::fmt(is[0].percentile_time(q).us(), 3),
               exp::fmt(is[1].percentile_time(q).us(), 3),
               exp::fmt(bs[0].percentile_time(q).us(), 3),
               exp::fmt(bs[1].percentile_time(q).us(), 3)});
  }
  t.print();

  std::printf("\n(Paper: both signals measured in ~0.4-1.2us, independent of host\n"
              " congestion — the reads never touch the congested datapath.)\n");
  return 0;
}

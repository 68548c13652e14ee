// Figure 18 reproduction: necessity of hostCC's mechanisms at 3x host
// congestion — ECN echo only, host-local response only, and both in
// tandem — plus (with --timeseries) the I_S/B_S traces of Fig. 18(b-d),
// and (with --ewma-sweep) the signal-smoothing ablation of §4.1.
// Paper: echo-only minimizes drops but throughput collapses (~28Gbps);
// local-only restores throughput but I_S saturates and drops stay high;
// both together give high throughput AND low drops.
#include <cstdio>
#include <functional>
#include <vector>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"
#include "sim/sweep_runner.h"

using namespace hostcc;

namespace {

exp::ScenarioConfig ablation_config(bool echo, bool local, bool quick) {
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 3.0;
  cfg.hostcc_enabled = true;
  cfg.hostcc.echo_enabled = echo;
  cfg.hostcc.local_response_enabled = local;
  cfg.record_signals = true;
  if (quick) {
    cfg.warmup = sim::Time::milliseconds(60);
    cfg.measure = sim::Time::milliseconds(60);
  }
  return cfg;
}

void run_main_table(bool quick, const sim::SweepRunner& runner) {
  struct V {
    const char* name;
    bool echo, local;
  };
  const V variants[] = {{"echo only", true, false},
                        {"host-local response only", false, true},
                        {"echo + host-local response", true, true}};
  struct Row {
    exp::ScenarioResults r;
    double max_is = 0.0;
  };
  std::vector<std::function<Row()>> tasks;
  for (const V& v : variants) {
    tasks.emplace_back([v, quick] {
      exp::Scenario s(ablation_config(v.echo, v.local, quick));
      s.run_warmup();
      const sim::Time t0 = s.simulator().now();
      Row row;
      row.r = s.run_measure();
      row.max_is = s.is_series().max_over(t0, s.simulator().now());
      return row;
    });
  }
  const auto rows = runner.run(std::move(tasks));

  exp::Table t({"variant", "net_tput_gbps", "drop_rate_pct", "avg_IS", "max_IS", "avg_BS_gbps"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [r, max_is] = rows[i];
    t.add_row({variants[i].name, exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct),
               exp::fmt(r.avg_iio_occupancy, 1), exp::fmt(max_is, 1),
               exp::fmt(r.avg_pcie_gbps, 1)});
  }
  t.print();
  std::printf("\n(Paper: echo-only ~28Gbps low drops; local-only high tput, I_S pinned\n"
              " at ~93 and high drops; both => high tput and minimal drops.)\n");
}

void run_timeseries(bool quick) {
  struct V {
    const char* name;
    bool echo, local;
  };
  const V variants[] = {{"echo only (Fig. 18b)", true, false},
                        {"local only (Fig. 18c)", false, true},
                        {"both (Fig. 18d)", true, true}};
  for (const V& v : variants) {
    exp::Scenario s(ablation_config(v.echo, v.local, quick));
    s.run_warmup();
    const sim::Time t0 = s.simulator().now();
    s.run_for(sim::Time::milliseconds(1));
    std::printf("-- %s --\n", v.name);
    exp::Table t({"t_us", "pcie_bw_gbps", "iio_occupancy"});
    for (int bin = 0; bin < 10; ++bin) {
      const sim::Time a = t0 + sim::Time::microseconds(100.0 * bin);
      const sim::Time b = a + sim::Time::microseconds(100);
      t.add_row({exp::fmt(100.0 * bin, 0), exp::fmt(s.bs_series().mean_over(a, b), 1),
                 exp::fmt(s.is_series().mean_over(a, b), 1)});
    }
    t.print();
    std::printf("\n");
  }
}

void run_ewma_sweep(bool quick, const sim::SweepRunner& runner) {
  std::printf("-- EWMA-weight ablation (aggressiveness vs. delayed reaction, §4.1) --\n");
  struct W {
    double is, bs;
  };
  const W weights[] = {{1.0 / 2, 1.0 / 8},  {1.0 / 8, 1.0 / 32},
                       {1.0 / 32, 1.0 / 128}, {1.0 / 64, 1.0 / 256}};
  struct Row {
    exp::ScenarioResults r;
    double writes_per_ms = 0.0;
  };
  std::vector<std::function<Row()>> tasks;
  for (const W& w : weights) {
    tasks.emplace_back([w, quick] {
      exp::ScenarioConfig cfg = ablation_config(true, true, quick);
      cfg.hostcc.signals.is_ewma_weight = w.is;
      cfg.hostcc.signals.bs_ewma_weight = w.bs;
      exp::Scenario s(cfg);
      Row row;
      row.r = s.run();
      row.writes_per_ms = static_cast<double>(s.receiver().mba().msr_writes_issued()) /
                          (s.simulator().now().ms());
      return row;
    });
  }
  const auto rows = runner.run(std::move(tasks));

  exp::Table t({"is_weight", "bs_weight", "net_tput_gbps", "drop_rate_pct", "mapp_mem_util",
                "mba_writes_per_ms"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [r, writes_per_ms] = rows[i];
    t.add_row({"1/" + exp::fmt(1.0 / weights[i].is, 0), "1/" + exp::fmt(1.0 / weights[i].bs, 0),
               exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct),
               exp::fmt(r.mapp_mem_util), exp::fmt(writes_per_ms, 1)});
  }
  t.print();
  std::printf("(Large weights react fast but overreact to bursts; small weights react\n"
              " late and let queues build — the paper's §4.1 trade-off.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchOpts opts =
      exp::parse_bench_opts_or_die(argc, argv, {"--jobs", "--timeseries", "--ewma-sweep"});
  const sim::SweepRunner runner(opts.jobs);

  std::printf("=== Figure 18: necessity of hostCC's mechanisms (3x congestion) ===\n\n");
  run_main_table(opts.quick, runner);
  std::printf("\n");
  if (opts.timeseries) run_timeseries(opts.quick);
  if (opts.ewma_sweep) run_ewma_sweep(opts.quick, runner);
  return 0;
}

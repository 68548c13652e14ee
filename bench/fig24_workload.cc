// Figure 24 (repo extension): production workload engine under load. An
// open-loop Poisson churn of websearch-sized flows sweeps the offered load
// from 0.2x to 0.9x of the host bisection bandwidth, with hostCC off and
// on, and reports the flow-slowdown curve (P50/P99), the P99.9 FCT tail,
// and the per-size-bucket breakdown — the standard datacenter-transport
// evaluation cut (slowdown vs flow size as load approaches saturation).
//
// Every run audits conservation invariants; a violation fails the binary,
// as do empty measurement windows or a tail that fails to grow with load.
//
//   --quick     shorter windows (CI smoke)
//   --json      machine-readable rows incl. the by-size buckets (no
//               wall-clock fields)
//   --shards N  worker threads, >= 1 (byte-identical results)
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/fabric_scenario.h"
#include "exp/table.h"
#include "obs/flow_stats.h"

using namespace hostcc;

namespace {

struct RunOut {
  exp::FabricScenarioResults r;
  double load = 0.0;
  bool hostcc = false;
  std::int64_t slowdown_p50 = 0;  // milli-units, 1000 == ideal
  std::int64_t slowdown_p99 = 0;
  std::string flow_json;  // FlowStats summary incl. by-size buckets
};

RunOut run_one(double load, bool hostcc, bool quick, int shards) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x4";
  cfg.shards = shards;
  cfg.hostcc_enabled = hostcc;
  cfg.warmup = sim::Time::milliseconds(quick ? 1 : 3);
  cfg.measure = sim::Time::milliseconds(quick ? 5 : 20);
  cfg.workload.enabled = true;
  cfg.workload.load = load;
  cfg.workload.size_dist = "websearch";
  cfg.workload.slots_per_pair = 8;
  cfg.workload.reuse_cooldown = sim::Time::microseconds(200);

  exp::FabricScenario s(std::move(cfg));
  RunOut o;
  o.r = s.run();
  o.load = load;
  o.hostcc = hostcc;
  o.slowdown_p50 = s.flow_stats().slowdown_milli().percentile(0.50);
  o.slowdown_p99 = s.flow_stats().slowdown_milli().percentile(0.99);
  std::ostringstream fs;
  s.flow_stats().write_json_summary(fs);
  o.flow_json = fs.str();
  return o;
}

std::string run_json(const RunOut& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"load\": %.2f, \"hostcc\": %s, \"tput_gbps\": %.4f, "
                "\"flows_started\": %llu, \"flows_completed\": %llu, "
                "\"flows_skipped\": %llu, \"fct_p50_us\": %.3f, \"fct_p99_us\": %.3f, "
                "\"fct_p999_us\": %.3f, \"slowdown_p50\": %lld, \"slowdown_p99\": %lld, "
                "\"violations\": %llu, \"flow_stats\": ",
                o.load, o.hostcc ? "true" : "false", o.r.net_tput_gbps,
                static_cast<unsigned long long>(o.r.flows_started),
                static_cast<unsigned long long>(o.r.flows_completed),
                static_cast<unsigned long long>(o.r.flows_skipped), o.r.fct_p50_us,
                o.r.fct_p99_us, o.r.fct_p999_us, static_cast<long long>(o.slowdown_p50),
                static_cast<long long>(o.slowdown_p99),
                static_cast<unsigned long long>(o.r.invariant_violations));
  return std::string(buf) + o.flow_json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchOpts opts = exp::parse_bench_opts_or_die(argc, argv, {"--shards", "--json"});

  const std::vector<double> loads = opts.quick ? std::vector<double>{0.2, 0.6, 0.9}
                                               : std::vector<double>{0.2, 0.4, 0.6, 0.8, 0.9};
  std::vector<RunOut> outs;
  for (const bool cc : {false, true}) {
    for (const double load : loads) {
      outs.push_back(run_one(load, cc, opts.quick, opts.shards));
    }
  }

  exp::Table t({"hostcc", "load", "tput_gbps", "done/skip", "fct_p50_us", "fct_p99_us",
                "fct_p999_us", "slow_p50", "slow_p99", "inv"});
  for (const RunOut& o : outs) {
    t.add_row({o.hostcc ? "on" : "off", exp::fmt(o.load, 2), exp::fmt(o.r.net_tput_gbps),
               std::to_string(o.r.flows_completed) + "/" + std::to_string(o.r.flows_skipped),
               exp::fmt(o.r.fct_p50_us, 1), exp::fmt(o.r.fct_p99_us, 1),
               exp::fmt(o.r.fct_p999_us, 1), exp::fmt(o.slowdown_p50 / 1000.0, 2),
               exp::fmt(o.slowdown_p99 / 1000.0, 2),
               std::to_string(o.r.invariant_violations)});
  }
  if (opts.json) {
    std::printf("{\n  \"runs\": [");
    for (std::size_t i = 0; i < outs.size(); ++i) {
      std::printf("%s\n    %s", i ? "," : "", run_json(outs[i]).c_str());
    }
    std::printf("\n  ]\n}\n");
  } else {
    std::printf("=== Figure 24: workload churn, slowdown vs load "
                "(websearch, leaf-spine:2x4) ===\n\n");
    t.print();
    std::printf("\n(Slowdown is FCT over the ideal transfer at the reference line\n"
                " rate; 1.00 == ideal. The open-loop engine never blocks: arrivals\n"
                " finding every (src,dst) slot busy are counted as skipped.)\n");
  }

  // Acceptance: clean ledgers, a real measurement window at every point,
  // and a P99 tail that grows from the lightest to the heaviest load.
  int rc = 0;
  for (const RunOut& o : outs) {
    if (o.r.invariant_violations > 0) {
      std::fprintf(stderr, "FAIL: hostcc=%d load=%.2f: %llu invariant violation(s)\n",
                   o.hostcc, o.load,
                   static_cast<unsigned long long>(o.r.invariant_violations));
      rc = 1;
    }
    if (o.r.flows_completed == 0 || o.r.fct_p999_us <= 0.0) {
      std::fprintf(stderr, "FAIL: hostcc=%d load=%.2f: empty measurement window\n",
                   o.hostcc, o.load);
      rc = 1;
    }
  }
  const std::size_t n = loads.size();
  for (const std::size_t base : {std::size_t{0}, n}) {  // off rows, then on rows
    const RunOut& lo = outs[base];
    const RunOut& hi = outs[base + n - 1];
    if (hi.r.fct_p99_us < lo.r.fct_p99_us) {
      std::fprintf(stderr,
                   "FAIL: hostcc=%d: P99 FCT at load %.2f (%.1f us) below load %.2f "
                   "(%.1f us)\n",
                   hi.hostcc, hi.load, hi.r.fct_p99_us, lo.load, lo.r.fct_p99_us);
      rc = 1;
    }
  }
  return rc;
}

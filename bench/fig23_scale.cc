// Figure 23 (repo extension): hybrid-fidelity scaling. How large an
// incast fabric can one core sustain when only congested hosts pay
// packet-level prices?
//
//   (a) accuracy: the same 64-host incast under --fidelity full vs auto.
//       The victim runs the identical packet-level HostModel in both, so
//       its FCT percentiles and drop rate must agree within 10% — the
//       analytic senders only approximate pacing on the victim's ingress.
//   (b) scale: auto-fidelity incasts at 64..640 hosts. The acceptance bar
//       is >= 10x the all-full host count at no more wall clock than the
//       64-host all-full baseline.
//
// Closed-loop 64 KiB messages give FlowStats real completion episodes
// (FCT percentiles measure the victim's ingress pipeline). Every run
// audits conservation invariants; a violation fails the binary, as does
// missing either acceptance bar.
//
//   --quick   shorter windows (CI smoke)
//   --json    machine-readable rows (no wall-clock fields)
#include <cstdio>
#include <chrono>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/fabric_scenario.h"
#include "exp/table.h"

using namespace hostcc;

namespace {

struct RunOut {
  exp::FabricScenarioResults r;
  double wall_ms = 0.0;
  int hosts = 0;
  std::string mode;
};

RunOut run_one(const std::string& mode, int hosts, exp::HostFidelity fid, bool quick) {
  exp::FabricScenarioConfig cfg;
  // 64 hosts fit leaf-spine:8x8; the scale rows widen the same fabric
  // shape (40 hosts per leaf) instead of deepening it, so the victim's
  // leaf fan-in grows with the host count the way an incast's would.
  cfg.topology = hosts <= 64 ? "leaf-spine:8x8" : "leaf-spine:16x40";
  cfg.hosts = hosts;
  cfg.fidelity = fid;
  cfg.mapp_degree = 0.0;
  cfg.flow_bytes = 64 * sim::kKiB;
  cfg.record_flow_stats = true;
  cfg.warmup = sim::Time::milliseconds(quick ? 2 : 5);
  cfg.measure = sim::Time::milliseconds(quick ? 3 : 10);

  const auto t0 = std::chrono::steady_clock::now();
  exp::FabricScenario s(std::move(cfg));
  RunOut o;
  o.r = s.run();
  o.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  o.hosts = hosts;
  o.mode = mode;
  return o;
}

std::string run_json(const RunOut& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"mode\": \"%s\", \"hosts\": %d, \"tput_gbps\": %.4f, "
                "\"host_drop_rate_pct\": %.6f, \"fct_p50_us\": %.3f, \"fct_p99_us\": %.3f, "
                "\"hosts_full\": %d, \"hosts_analytic\": %d, \"promotions\": %llu, "
                "\"violations\": %llu}",
                o.mode.c_str(), o.hosts, o.r.net_tput_gbps, o.r.host_drop_rate_pct,
                o.r.fct_p50_us, o.r.fct_p99_us, o.r.hosts_full, o.r.hosts_analytic,
                static_cast<unsigned long long>(o.r.promotions),
                static_cast<unsigned long long>(o.r.invariant_violations));
  return buf;
}

// |a - b| as a fraction of the reference (0 when both are 0).
double rel_err(double a, double ref) {
  if (ref == 0.0) return a == 0.0 ? 0.0 : 1.0;
  return a > ref ? (a - ref) / ref : (ref - a) / ref;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchOpts opts = exp::parse_bench_opts_or_die(argc, argv, {"--json"});

  std::vector<RunOut> outs;
  outs.push_back(run_one("full", 64, exp::HostFidelity::kFull, opts.quick));
  outs.push_back(run_one("auto", 64, exp::HostFidelity::kAuto, opts.quick));
  for (const int hosts : {160, 320, 640}) {
    outs.push_back(run_one("auto", hosts, exp::HostFidelity::kAuto, opts.quick));
  }

  exp::Table t({"mode", "hosts", "full/analytic", "tput_gbps", "drop_pct", "fct_p50_us",
                "fct_p99_us", "wall_ms", "inv"});
  for (const RunOut& o : outs) {
    t.add_row({o.mode, std::to_string(o.hosts),
               std::to_string(o.r.hosts_full) + "/" + std::to_string(o.r.hosts_analytic),
               exp::fmt(o.r.net_tput_gbps), exp::fmt_rate(o.r.host_drop_rate_pct),
               exp::fmt(o.r.fct_p50_us, 1), exp::fmt(o.r.fct_p99_us, 1),
               exp::fmt(o.wall_ms, 1), std::to_string(o.r.invariant_violations)});
  }
  if (opts.json) {
    std::printf("{\n  \"runs\": [");
    for (std::size_t i = 0; i < outs.size(); ++i) {
      std::printf("%s\n    %s", i ? "," : "", run_json(outs[i]).c_str());
    }
    std::printf("\n  ]\n}\n");
  } else {
    t.print();
    std::printf("\n(Senders run flow-level; only the incast victim pays packet-level\n"
                " prices. The victim's pipeline is the identical HostModel in every\n"
                " row, so its FCT tail and drop accounting stay comparable while the\n"
                " host count scales an order of magnitude on the same core.)\n");
  }

  // Acceptance: (1) clean ledgers everywhere; (2) auto tracks full within
  // 10% on the victim's P99 FCT and drop rate at 64 hosts; (3) 640 hosts
  // under auto cost no more wall clock than 64 all-full.
  int rc = 0;
  const RunOut& full64 = outs[0];
  const RunOut& auto64 = outs[1];
  const RunOut& auto640 = outs.back();
  for (const RunOut& o : outs) {
    if (o.r.invariant_violations > 0) {
      std::fprintf(stderr, "FAIL: %s/%d: %llu invariant violation(s)\n", o.mode.c_str(),
                   o.hosts, static_cast<unsigned long long>(o.r.invariant_violations));
      rc = 1;
    }
  }
  if (rel_err(auto64.r.fct_p99_us, full64.r.fct_p99_us) > 0.10) {
    std::fprintf(stderr, "FAIL: auto/64 P99 FCT %.1f us vs full/64 %.1f us (> 10%%)\n",
                 auto64.r.fct_p99_us, full64.r.fct_p99_us);
    rc = 1;
  }
  if (rel_err(auto64.r.host_drop_rate_pct, full64.r.host_drop_rate_pct) > 0.10 &&
      auto64.r.host_drop_rate_pct + full64.r.host_drop_rate_pct > 0.01) {
    std::fprintf(stderr, "FAIL: auto/64 drop %.4f%% vs full/64 %.4f%% (> 10%%)\n",
                 auto64.r.host_drop_rate_pct, full64.r.host_drop_rate_pct);
    rc = 1;
  }
  if (auto640.wall_ms > full64.wall_ms) {
    std::fprintf(stderr, "FAIL: auto/640 wall %.1f ms exceeds full/64 wall %.1f ms\n",
                 auto640.wall_ms, full64.wall_ms);
    rc = 1;
  }
  return rc;
}

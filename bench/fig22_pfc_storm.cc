// Figure 22 (extension): pause storms in a lossless fabric, and what hostCC
// does to them. Over a lossless (PFC) leaf-spine fabric, MApp contention on
// host 0 makes its NIC drain slowly, the RX ring crosses its watermark, and
// the host pauses its leaf delivery port. The pause backs up the leaf's
// shared buffer, which XOFFs the spines, which back up in turn — a
// congestion tree. Victim flows (not even touching host 0) stall behind
// those paused ports: the lossless fabric's HoL-blocking failure mode,
// measured here as victim P99 FCT.
//
//   (a) host-congestion pauses (incast into the MApp-loaded host), hostCC
//       off vs on: pause-frame rate and congestion-tree depth. hostCC
//       throttles the MApp at the memory controller, the NIC drains at
//       line rate again, and the pause source dries up — the lossless
//       analogue of Fig. 10's drop relief.
//   (b) pause_storm fault (500 us forced XOFF on the congested host's
//       edge) on top of (a): time-to-drain after the storm lifts and the
//       FCT tail, again off vs on. With hostCC the backlog the storm built
//       drains at line rate the moment it lifts; without it the slow host
//       keeps the congestion tree standing long after the fault is gone.
//
// Every run must be genuinely lossless: a single switch drop, an
// unbalanced pause ledger, or any other invariant violation fails the
// binary.
//
//   --json     byte-stable machine-readable results (no wall-clock)
//   --quick    shorter windows (CI)
//   --shards N worker threads, >= 1 (same bytes for every N)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/fabric_scenario.h"
#include "exp/table.h"

using namespace hostcc;

namespace {

struct RunOut {
  exp::FabricScenarioResults r;
  double xoff_per_ms = 0.0;
  double drain_us = 0.0;  // storm runs: last ledger all-clear after storm end
};

exp::FabricScenarioConfig base_cfg(const exp::BenchOpts& opt) {
  exp::FabricScenarioConfig cfg;
  cfg.congested_hosts = 1;
  cfg.lossless = true;
  cfg.shards = opt.shards;
  cfg.record_flow_stats = true;
  cfg.flow_bytes = 64 * sim::kKiB;  // closed-loop messages -> real FCTs
  cfg.warmup = sim::Time::milliseconds(opt.quick ? 2 : 5);
  cfg.measure = sim::Time::milliseconds(opt.quick ? 3 : 10);
  return cfg;
}

// (a) Host congestion as the pause source: 15 -> 1 incast into the MApp-
// loaded host. The pool is deep enough (512 KiB) that fabric congestion
// alone never pauses — every XOFF traces back to the slow host NIC, which
// is exactly the component hostCC governs.
exp::FabricScenarioConfig host_cfg(const exp::BenchOpts& opt) {
  exp::FabricScenarioConfig cfg = base_cfg(opt);
  cfg.topology = "leaf-spine:2x8";  // 16 hosts, 15 -> 1 incast
  cfg.traffic = exp::FabricTraffic::kIncast;
  cfg.flows_per_pair = 2;
  cfg.mapp_degree = 3.0;  // heavy MApp on h0 -> NIC drains slowly
  cfg.fabric.buffer_bytes = 512 * sim::kKiB;
  return cfg;
}

RunOut run_one(exp::FabricScenarioConfig cfg, double storm_end_us, std::uint64_t* violations) {
  const double measure_ms = cfg.measure.us() / 1000.0;
  exp::FabricScenario s(std::move(cfg));
  RunOut out;
  out.r = s.run();
  *violations += out.r.invariant_violations;
  if (out.r.fabric_drops > 0) {
    std::fprintf(stderr, "FAIL: %llu switch drop(s) in lossless mode\n",
                 static_cast<unsigned long long>(out.r.fabric_drops));
    ++*violations;
  }
  out.xoff_per_ms = static_cast<double>(out.r.pfc_xoff_frames) / measure_ms;
  if (storm_end_us > 0.0) {
    out.drain_us = std::max(0.0, out.r.pause_last_all_clear_us - storm_end_us);
  }
  return out;
}

std::string run_json(const char* mode, const RunOut& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"mode\":\"%s\",\"pfc_xoff_frames\":%llu,\"xoff_per_ms\":%.2f,"
                "\"pause_tree_depth_peak\":%d,\"pause_max_outstanding\":%d,"
                "\"fct_p50_us\":%.1f,\"fct_p99_us\":%.1f,\"drain_us\":%.1f,"
                "\"net_tput_gbps\":%.4f,\"fabric_drops\":%llu,"
                "\"invariant_violations\":%llu}",
                mode, static_cast<unsigned long long>(o.r.pfc_xoff_frames), o.xoff_per_ms,
                o.r.pause_tree_depth_peak, o.r.pause_max_outstanding, o.r.fct_p50_us,
                o.r.fct_p99_us, o.drain_us, o.r.net_tput_gbps,
                static_cast<unsigned long long>(o.r.fabric_drops),
                static_cast<unsigned long long>(o.r.invariant_violations));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchOpts opt = exp::parse_bench_opts_or_die(argc, argv, {"--shards", "--json"});

  std::uint64_t violations = 0;
  std::vector<std::string> host_json, storm_json;

  if (!opt.json) {
    std::printf("=== Figure 22: PFC pause storms behind a lossless leaf-spine fabric ===\n\n");
    std::printf("-- (a) host-congestion pauses (MApp on h0), hostCC off vs on --\n");
  }
  exp::Table ta({"mode", "xoff_frames", "xoff_per_ms", "tree_depth", "peak_paused",
                 "fct_p99_us", "inv"});
  for (const bool hostcc : {false, true}) {
    exp::FabricScenarioConfig cfg = host_cfg(opt);
    cfg.hostcc_enabled = hostcc;
    const RunOut o = run_one(std::move(cfg), 0.0, &violations);
    const char* mode = hostcc ? "lossless+hostcc" : "lossless";
    if (opt.json) host_json.push_back(run_json(mode, o));
    ta.add_row({mode, std::to_string(o.r.pfc_xoff_frames), exp::fmt(o.xoff_per_ms, 1),
                std::to_string(o.r.pause_tree_depth_peak),
                std::to_string(o.r.pause_max_outstanding), exp::fmt(o.r.fct_p99_us, 1),
                std::to_string(o.r.invariant_violations)});
  }
  if (!opt.json) ta.print();

  // (b) 500 us forced-XOFF storm on the congested host's edge, injected
  // mid-measurement. Victim flows never touch h0, yet their tail inflates
  // while the congestion tree stands; time-to-drain is how long the fabric
  // takes to go pause-free after the storm lifts.
  const double storm_start_us = (opt.quick ? 2.0 : 5.0) * 1000.0 + 1000.0;
  const double storm_dur_us = 500.0;
  const std::string spec = "pause_storm@" + std::to_string(storm_start_us) + "+" +
                           std::to_string(storm_dur_us) + ":0:h0-leaf0";
  if (!opt.json) {
    std::printf("\n-- (b) + pause_storm (500 us on h0-leaf0), hostCC off vs on --\n");
  }
  exp::Table tb({"mode", "xoff_frames", "tree_depth", "fct_p99_us", "drain_us", "inv"});
  for (const bool hostcc : {false, true}) {
    exp::FabricScenarioConfig cfg = host_cfg(opt);
    cfg.hostcc_enabled = hostcc;
    if (auto err = cfg.faults.add_spec(spec)) {
      std::fprintf(stderr, "%s\n", err->c_str());
      return 2;
    }
    const RunOut o = run_one(std::move(cfg), storm_start_us + storm_dur_us, &violations);
    const char* mode = hostcc ? "storm+hostcc" : "storm";
    if (opt.json) storm_json.push_back(run_json(mode, o));
    tb.add_row({mode, std::to_string(o.r.pfc_xoff_frames),
                std::to_string(o.r.pause_tree_depth_peak), exp::fmt(o.r.fct_p99_us, 1),
                exp::fmt(o.drain_us, 1), std::to_string(o.r.invariant_violations)});
  }
  if (!opt.json) tb.print();

  if (opt.json) {
    std::printf("{\n  \"host_pauses\": [");
    for (std::size_t i = 0; i < host_json.size(); ++i) {
      std::printf("%s\n    %s", i ? "," : "", host_json[i].c_str());
    }
    std::printf("\n  ],\n  \"storm\": [");
    for (std::size_t i = 0; i < storm_json.size(); ++i) {
      std::printf("%s\n    %s", i ? "," : "", storm_json[i].c_str());
    }
    std::printf("\n  ]\n}\n");
  } else {
    std::printf("\n(Lossless fabrics trade drops for HoL blocking: the congested host's\n"
                " pauses back up into a congestion tree that stalls victim flows. hostCC\n"
                " removes the host-side pause source — fewer pause frames, a shallower\n"
                " tree, and a faster post-storm drain — without giving up losslessness.)\n");
  }

  if (violations > 0) {
    std::fprintf(stderr, "FAIL: %llu invariant violation(s) / lossless drops\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

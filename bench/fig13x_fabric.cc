// Figure 13 extension: rack-scale incast across a multi-switch leaf-spine
// fabric (16 hosts behind 4 leaves + 2 spines) with shared-buffer DT
// switches, revisiting EXPERIMENTS.md deviation #6. The single-star runs
// kept fabric drops at ~<=1e-5 because a 512 KB *per-port* buffer under
// DCTCP never fills; with a realistically shallow *shared* pool (256 KiB
// across all 5+ ports, DT alpha 1), steady-state incast drop fractions
// land in the paper's 1e-4..1e-2 band and grow with fan-in.
//
//   (a) fabric congestion only: fan-in sweep, wire-limited senders
//   (b) host + fabric congestion at full fan-in: hostCC off vs on
//   (c) deep-buffer reference (the seed's effective regime): drops vanish
//
// Observability modes (both switch the long flows to closed-loop 64 KiB
// messages so FlowStats has real completion episodes):
//   --json            machine-readable results on stdout, including
//                     P50/P99/P99.9 FCT per fan-in. No wall-clock fields,
//                     so repeated runs are byte-identical.
//   --telemetry DIR   per-run fabric occupancy time-series: DIR/<tag>.csv
//                     (wide CSV) and DIR/<tag>_trace.json (Chrome counter
//                     tracks), also byte-identical across repeats.
//   --shards N        worker threads, >= 1 (same bytes for every N)
//
// Every run audits each switch's shared-buffer ledger; a violation fails
// the binary.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/fabric_scenario.h"
#include "exp/table.h"

using namespace hostcc;

namespace {

exp::FabricScenarioConfig base_cfg(const exp::BenchOpts& opt) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:4x4";  // 16 hosts, 4 leaves + 2 spines
  cfg.flows_per_pair = 4;
  cfg.mapp_degree = 0.0;
  cfg.fabric.buffer_bytes = 256 * sim::kKiB;  // shallow shared pool
  cfg.shards = opt.shards;
  cfg.warmup = sim::Time::milliseconds(opt.quick ? 2 : 5);
  cfg.measure = sim::Time::milliseconds(opt.quick ? 3 : 10);
  if (opt.json || !opt.telemetry_dir.empty()) {  // both report per-flow FCTs
    cfg.record_flow_stats = true;
    cfg.flow_bytes = 64 * sim::kKiB;  // closed-loop messages -> real FCTs
    cfg.telemetry = !opt.telemetry_dir.empty();
  }
  return cfg;
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

// Writes the run's sampled occupancy series as DIR/<tag>.csv plus Chrome
// counter tracks as DIR/<tag>_trace.json. Returns false on I/O failure.
bool dump_telemetry(exp::FabricScenario& s, const std::string& dir, const std::string& tag) {
  {
    std::ofstream out(dir + "/" + tag + ".csv");
    if (!out) {
      std::fprintf(stderr, "cannot open %s/%s.csv\n", dir.c_str(), tag.c_str());
      return false;
    }
    s.telemetry().write_csv(out);
  }
  std::ofstream out(dir + "/" + tag + "_trace.json");
  if (!out) {
    std::fprintf(stderr, "cannot open %s/%s_trace.json\n", dir.c_str(), tag.c_str());
    return false;
  }
  s.telemetry().write_chrome_json(out);
  return true;
}

// One JSON result object (shared shape across the three sections). The
// fct block comes straight from FlowStats' exact-integer renderer, so the
// whole object is byte-stable across repeated runs.
std::string result_json(exp::FabricScenario& s, const exp::FabricScenarioResults& r,
                        const std::string& extra_fields) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{%s\"net_tput_gbps\":%.4f,\"fabric_drop_frac\":%.3e,"
                "\"host_drop_rate_pct\":%.6f,\"fabric_drops\":%llu,\"fabric_marks\":%llu,"
                "\"occupancy_peak_kib\":%lld,\"flow_episodes\":%llu,"
                "\"invariant_violations\":%llu,\"fct\":",
                extra_fields.c_str(), r.net_tput_gbps, r.fabric_drop_frac,
                r.host_drop_rate_pct, static_cast<unsigned long long>(r.fabric_drops),
                static_cast<unsigned long long>(r.fabric_marks),
                static_cast<long long>(r.fabric_occupancy_peak / sim::kKiB),
                static_cast<unsigned long long>(r.flow_episodes),
                static_cast<unsigned long long>(r.invariant_violations));
  std::ostringstream os;
  os << buf;
  s.flow_stats().write_json_summary(os);
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchOpts opt =
      exp::parse_bench_opts_or_die(argc, argv, {"--shards", "--json", "--telemetry"});

  std::uint64_t violations = 0;
  std::vector<std::string> sweep_json, ab_json;
  std::string deep_json;

  if (!opt.json) {
    std::printf(
        "=== Figure 13x: rack-scale incast over a shared-buffer leaf-spine fabric ===\n\n");
    std::printf("-- (a) fabric congestion only: fan-in sweep (256 KiB shared buffer) --\n");
  }
  exp::Table ta({"fan_in", "hosts", "net_tput_gbps", "drop_frac", "marks", "occ_peak_kib",
                 "inv"});
  for (const int hosts : {5, 9, 13, 16}) {
    exp::FabricScenarioConfig cfg = base_cfg(opt);
    cfg.hosts = hosts;
    exp::FabricScenario s(std::move(cfg));
    const auto r = s.run();
    violations += r.invariant_violations;
    if (!opt.telemetry_dir.empty() &&
        !dump_telemetry(s, opt.telemetry_dir, "fanin" + std::to_string(hosts - 1))) {
      return 1;
    }
    if (opt.json) {
      sweep_json.push_back(result_json(
          s, r, "\"fan_in\":" + std::to_string(hosts - 1) +
                    ",\"hosts\":" + std::to_string(hosts) + ","));
    }
    ta.add_row({std::to_string(hosts - 1), std::to_string(hosts), exp::fmt(r.net_tput_gbps),
                sci(r.fabric_drop_frac), std::to_string(r.fabric_marks),
                std::to_string(r.fabric_occupancy_peak / sim::kKiB),
                std::to_string(r.invariant_violations)});
  }
  if (!opt.json) ta.print();

  if (!opt.json) {
    std::printf(
        "\n-- (b) host + fabric congestion, full fan-in (15 -> 1): hostCC off vs on --\n");
  }
  exp::Table tb({"mode", "net_tput_gbps", "drop_frac", "host_drop_pct", "marks",
                 "avg_iio_occ", "inv"});
  for (const bool hostcc : {false, true}) {
    exp::FabricScenarioConfig cfg = base_cfg(opt);
    cfg.mapp_degree = 2.0;
    cfg.hostcc_enabled = hostcc;
    exp::FabricScenario s(std::move(cfg));
    const auto r = s.run();
    violations += r.invariant_violations;
    const std::string mode = hostcc ? "dctcp+hostcc" : "dctcp";
    if (!opt.telemetry_dir.empty() &&
        !dump_telemetry(s, opt.telemetry_dir, hostcc ? "hostcc_on" : "hostcc_off")) {
      return 1;
    }
    if (opt.json) ab_json.push_back(result_json(s, r, "\"mode\":\"" + mode + "\","));
    tb.add_row({mode, exp::fmt(r.net_tput_gbps), sci(r.fabric_drop_frac),
                exp::fmt_rate(r.host_drop_rate_pct), std::to_string(r.fabric_marks),
                exp::fmt(r.avg_iio_occupancy), std::to_string(r.invariant_violations)});
  }
  if (!opt.json) tb.print();

  if (!opt.json) {
    std::printf("\n-- (c) deep-buffer reference (2 MiB shared: the seed's regime) --\n");
  }
  exp::Table tc({"buffer_kib", "net_tput_gbps", "drop_frac", "marks", "inv"});
  {
    exp::FabricScenarioConfig cfg = base_cfg(opt);
    cfg.fabric.buffer_bytes = 2 * sim::kMiB;
    exp::FabricScenario s(std::move(cfg));
    const auto r = s.run();
    violations += r.invariant_violations;
    if (!opt.telemetry_dir.empty() && !dump_telemetry(s, opt.telemetry_dir, "deep_buffer")) {
      return 1;
    }
    if (opt.json) {
      deep_json = result_json(s, r, "\"buffer_kib\":" +
                                        std::to_string(2 * sim::kMiB / sim::kKiB) + ",");
    }
    tc.add_row({std::to_string(2 * sim::kMiB / sim::kKiB), exp::fmt(r.net_tput_gbps),
                sci(r.fabric_drop_frac), std::to_string(r.fabric_marks),
                std::to_string(r.invariant_violations)});
  }
  if (!opt.json) tc.print();

  if (opt.json) {
    std::printf("{\n  \"fan_in_sweep\": [");
    for (std::size_t i = 0; i < sweep_json.size(); ++i) {
      std::printf("%s\n    %s", i ? "," : "", sweep_json[i].c_str());
    }
    std::printf("\n  ],\n  \"hostcc_ab\": [");
    for (std::size_t i = 0; i < ab_json.size(); ++i) {
      std::printf("%s\n    %s", i ? "," : "", ab_json[i].c_str());
    }
    std::printf("\n  ],\n  \"deep_buffer\": %s\n}\n", deep_json.c_str());
  } else {
    std::printf("\n(Paper Fig. 13a: incast drop rates 1e-4 -> 1e-2 growing with fan-in. The\n"
                " shallow shared pool reproduces the band; hostCC moves the bottleneck into\n"
                " the host and relieves the fabric, same as the paper's combined runs.)\n");
  }

  if (violations > 0) {
    std::fprintf(stderr, "FAIL: %llu shared-buffer ledger violation(s)\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

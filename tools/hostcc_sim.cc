// hostcc_sim: command-line experiment runner for the hostcc-sim library —
// the fastest way to explore the host-congestion parameter space without
// writing code. One flag table drives two run modes:
//
//   hostcc_sim [flag]...                  single star (exp::Scenario): the
//                                         paper's testbed, N senders behind
//                                         one switch into one receiver
//   hostcc_sim --topology SPEC [flag]...  fabric (exp::FabricScenario):
//   hostcc_sim --scenario FILE [flag]...  a multi-switch fabric of full or
//                                         hybrid-fidelity hosts
//
// Each flag is valid in both modes, in star mode only, or in fabric mode
// only. Every fabric flag is a [fabric] scenario-file key
// (docs/WORKLOADS.md): fabric mode starts from the file (or the
// FabricScenarioConfig defaults, with --degree's default of 0), then
// applies each flag in command-line order through exp::set_fabric_key, so
// a flag overrides the file exactly as a later line of the file would.
// Star mode parses its values with the same strict parsers. An unknown
// flag, a missing or unparseable value, and a flag outside the run's mode
// are all collected into one error (exit 2); nothing is silently ignored.
//
// The observability flags export the run's internals. One routine writes
// --metrics (the end-of-run metrics registry; .json for JSON, else CSV),
// --decisions (the hostCC decision log, same extension rule), --flow-stats
// (the per-flow FCT record) and --profile (the simulator self-profiler
// report; wall-clock, the one deliberately non-deterministic output) for
// both modes. --trace writes a Chrome trace_event JSON (open in Perfetto):
// packet lifecycle slices in star mode, per-switch/per-port occupancy
// counter tracks in fabric mode. --telemetry (fabric only) writes the
// sampled fabric occupancy time-series as wide CSV.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/fabric_scenario.h"
#include "exp/scenario.h"
#include "exp/scenario_file.h"
#include "exp/table.h"
#include "obs/log.h"

using namespace hostcc;

namespace {

using Err = std::optional<std::string>;

Err expected(const char* want, const std::string& v) {
  return std::string("expected ") + want + ", got '" + v + "'";
}

// Star-mode setters: the scenario file's strict parsers, one per field type.
Err set(double& field, const std::string& v) {
  return exp::parse_double(v, field) ? Err{} : expected("a number", v);
}
Err set(bool& field, const std::string& v) {
  return exp::parse_bool(v, field) ? Err{} : expected("a boolean", v);
}
Err set(std::uint64_t& field, const std::string& v) {
  return exp::parse_u64(v, field) ? Err{} : expected("an unsigned integer", v);
}
template <typename Int>  // int and sim::Bytes fields
Err set(Int& field, const std::string& v) {
  long long n = 0;
  if (!exp::parse_i64(v, n)) return expected("an integer", v);
  field = static_cast<Int>(n);
  return {};
}
Err set_ms(sim::Time& field, const std::string& v) {
  double ms = 0.0;
  if (!exp::parse_double(v, ms)) return expected("milliseconds", v);
  field = sim::Time::milliseconds(ms);
  return {};
}

enum Scope { kBoth, kStar, kFabric };

using C = exp::ScenarioConfig;
using V = std::string;

struct Flag {
  const char* name;
  const char* arg;      // the value's name in the usage text; nullptr for a switch
  const char* implied;  // the value a switch stands for ("true" for --hostcc)
  Scope scope;
  // Fabric mode: the [fabric] key the flag sets (exp::set_fabric_key).
  const char* key;
  const char* help;
  // Star mode: sets the flag's exp::ScenarioConfig field.
  Err (*star)(C&, const V&);
  // Flags with neither key nor setter are outputs, read by name.
};

const Flag kFlags[] = {
    {"--degree", "N", nullptr, kBoth, "degree", "MApp intensity 0..3, x8 cores [0; file: 2]",
     [](C& c, const V& v) { return set(c.mapp_degree, v); }},
    {"--ddio", nullptr, "true", kBoth, "ddio", "DDIO at the receiver; sets I_T to 50",
     [](C& c, const V& v) {
       Err e = set(c.host.ddio_enabled, v);
       if (c.host.ddio_enabled) c.hostcc.iio_threshold = 50.0;  // §5.2 default for DDIO
       return e;
     }},
    {"--hostcc", nullptr, "true", kBoth, "hostcc", "hostCC at the receiver",
     [](C& c, const V& v) { return set(c.hostcc_enabled, v); }},
    {"--bt", "GBPS", nullptr, kBoth, "bt_gbps", "hostCC target bandwidth B_T [80]",
     [](C& c, const V& v) {
       double gbps = 0.0;
       Err e = set(gbps, v);
       if (!e) c.hostcc.target_bandwidth = sim::Bandwidth::gbps(gbps);
       return e;
     }},
    {"--it", "LINES", nullptr, kBoth, "it", "hostCC IIO threshold I_T [70]",
     [](C& c, const V& v) { return set(c.hostcc.iio_threshold, v); }},
    {"--cc", "NAME", nullptr, kBoth, "cc", "dctcp | reno | swift | dcqcn [dctcp]",
     [](C& c, const V& v) {
       return transport::parse_cc_kind(v, c.transport.cc)
                  ? Err{}
                  : expected("dctcp | reno | swift | dcqcn", v);
     }},
    {"--mtu", "BYTES", nullptr, kBoth, "mtu", "wire MTU [4096]",
     [](C& c, const V& v) { return set(c.transport.mtu, v); }},
    {"--iommu-miss-rate", "F", nullptr, kBoth, "iommu_miss_rate", "IOMMU on, IOTLB miss rate F",
     [](C& c, const V& v) {
       c.host.iommu_enabled = true;
       return set(c.host.iotlb_miss_rate, v);
     }},
    {"--warmup", "MS", nullptr, kBoth, "warmup_ms", "warmup milliseconds [250 / 10]",
     [](C& c, const V& v) { return set_ms(c.warmup, v); }},
    {"--measure", "MS", nullptr, kBoth, "measure_ms", "measurement milliseconds [150 / 10]",
     [](C& c, const V& v) { return set_ms(c.measure, v); }},
    {"--seed", "N", nullptr, kBoth, "seed", "RNG seed [1]",
     [](C& c, const V& v) { return set(c.host.seed, v); }},
    {"--fault", "SPEC", nullptr, kBoth, "fault",
     "inject a fault, repeatable; SPEC is\n"
     "<kind>@<start_us>+<dur_us>[:<param>][:<target>], dur 0 = to the end;\n"
     "kinds: msr_stall msr_freeze msr_torn mba_fail mba_delay link_down\n"
     "link_degrade port_down sampler_pause pause_storm pfc_mute",
     [](C& c, const V& v) { return c.faults.add_spec(v); }},
    {"--no-invariants", nullptr, "false", kBoth, "check_invariants",
     "no runtime invariant checker", [](C& c, const V& v) { return set(c.check_invariants, v); }},
    {"--flow-bytes", "N", nullptr, kBoth, "flow_bytes", "closed-loop message bytes per flow (FCT)",
     [](C& c, const V& v) {
       c.record_flow_stats = true;
       return set(c.netapp_flow_bytes, v);
     }},
    {"--json", nullptr, "true", kBoth, nullptr, "machine-readable output", nullptr},
    {"--trace", "FILE", nullptr, kBoth, nullptr,
     "Chrome trace JSON: packet lifecycle (star), counter tracks (fabric)", nullptr},
    {"--metrics", "FILE", nullptr, kBoth, nullptr, "metrics registry dump (.json or CSV)", nullptr},
    {"--decisions", "FILE", nullptr, kBoth, nullptr, "hostCC decision log (.json or CSV)", nullptr},
    {"--flow-stats", "FILE", nullptr, kBoth, nullptr, "per-flow FCT/bytes record (CSV)", nullptr},
    {"--profile", "FILE", nullptr, kBoth, nullptr, "simulator self-profiler report", nullptr},
    {"--log-level", "LEVEL", nullptr, kBoth, nullptr, "trace|debug|info|warn|error|off [off]",
     nullptr},

    {"--sender-degree", "N", nullptr, kStar, nullptr, "MApp intensity at the sender [0]",
     [](C& c, const V& v) { return set(c.sender_mapp_degree, v); }},
    {"--sender-hostcc", nullptr, "true", kStar, nullptr, "enable the sender-side hostCC response",
     [](C& c, const V& v) { return set(c.sender_local_response, v); }},
    {"--flows", "N", nullptr, kStar, nullptr, "NetApp-T flows [4]",
     [](C& c, const V& v) { return set(c.netapp_flows, v); }},
    {"--senders", "N", nullptr, kStar, nullptr, "sender hosts (incast) [1]",
     [](C& c, const V& v) { return set(c.senders, v); }},
    {"--rpc", "BYTES", nullptr, kStar, nullptr, "add a NetApp-L RPC size, repeatable",
     [](C& c, const V& v) {
       sim::Bytes size = 0;
       Err e = set(size, v);
       if (!e) c.rpc_sizes.push_back(size);
       return e;
     }},
    {"--mba-level", "L", nullptr, kStar, nullptr, "hard-code the MBA level 0..4",
     [](C& c, const V& v) { return set(c.fixed_mba_level, v); }},
    {"--signals", nullptr, "true", kStar, nullptr, "record and report I_S/B_S averages",
     [](C& c, const V& v) { return set(c.record_signals, v); }},

    {"--topology", "SPEC", nullptr, kFabric, "topology",
     "star:<n> | leaf-spine:<l>x<h>[x<s>] | fat-tree:<k>", nullptr},
    {"--scenario", "FILE", nullptr, kFabric, nullptr, "scenario file (docs/WORKLOADS.md)",
     nullptr},
    {"--hosts", "N", nullptr, kFabric, "hosts", "participating hosts, 0 = all [0]", nullptr},
    {"--shards", "N", nullptr, kFabric, "shards", "worker threads, same output for any N [1]",
     nullptr},
    {"--pattern", "NAME", nullptr, kFabric, "pattern", "incast | all-to-all [incast]", nullptr},
    {"--flows-per-pair", "N", nullptr, kFabric, "flows_per_pair",
     "long flows per (sender, dest) pair [2]", nullptr},
    {"--fabric-buffer", "KIB", nullptr, kFabric, "fabric_buffer_kib",
     "switch shared buffer [2048]", nullptr},
    {"--lossless", nullptr, "true", kFabric, "lossless", "PFC on every switch, NIC backpressure",
     nullptr},
    {"--storm-breaker", nullptr, "true", kFabric, "storm_breaker",
     "force-XON pause deadlock cycles", nullptr},
    {"--fidelity", "MODE", nullptr, kFabric, "fidelity",
     "full | analytic | auto [full]; auto promotes\n"
     "flow-level hosts to full HostModels on congestion", nullptr},
    {"--promote-threshold", "N", nullptr, kFabric, "promote_threshold",
     "auto: delivery-port queue bytes that promote [65536]", nullptr},
    {"--messages-per-flow", "N", nullptr, kFabric, "messages_per_flow",
     "messages per closed-loop flow, 0 = endless [0]", nullptr},
    {"--telemetry", "FILE", nullptr, kFabric, nullptr, "fabric occupancy time-series (CSV)",
     nullptr},
};

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [flag]...                  single-star run\n"
               "       %s --topology SPEC [flag]...  fabric run\n"
               "       %s --scenario FILE [flag]...  fabric run from a scenario file\n"
               "A fabric flag sets the [fabric] key in parentheses, after the file, in\n"
               "command-line order; a flag outside the run's mode is an error.\n"
               "Defaults in brackets, [star / fabric] where the modes differ.\n",
               argv0, argv0, argv0);
  const char* const headers[] = {"both modes:", "star only:", "fabric only:"};
  for (const Scope scope : {kBoth, kStar, kFabric}) {
    std::fprintf(stderr, "%s\n", headers[scope]);
    for (const Flag& f : kFlags) {
      if (f.scope != scope) continue;
      const std::string flag = std::string(f.name) + (f.arg ? std::string(" ") + f.arg : "");
      std::string help = f.help;  // continuation lines align under the first
      for (std::size_t at = help.find('\n'); at != std::string::npos; at = help.find('\n', at + 1)) {
        help.insert(at + 1, 25, ' ');
      }
      if (f.key) help += std::string(" (") + f.key + ")";
      std::fprintf(stderr, "  %-22s %s\n", flag.c_str(), help.c_str());
    }
  }
}

// The command line after one scan against kFlags.
struct Cli {
  std::vector<std::pair<const Flag*, std::string>> flags;  // command-line order
  bool fabric = false;  // --topology or --scenario given

  bool has(const char* name) const {
    for (const auto& [flag, val] : flags) {
      if (std::strcmp(flag->name, name) == 0) return true;
    }
    return false;
  }
  // The last value given for `name` ("" if absent).
  std::string value(const char* name) const {
    std::string last;
    for (const auto& [flag, val] : flags) {
      if (std::strcmp(flag->name, name) == 0) last = val;
    }
    return last;
  }
};

// Scans argv once; unknown flags, missing values and flags outside the
// run's mode go to `errs`.
Cli scan(int argc, char** argv, std::vector<std::string>& errs) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (a == f.name) flag = &f;
    }
    if (flag == nullptr) {
      errs.push_back("unknown flag '" + a + "'");
    } else if (flag->arg == nullptr) {
      cli.flags.emplace_back(flag, flag->implied);
    } else if (i + 1 < argc) {
      cli.flags.emplace_back(flag, argv[++i]);
    } else {
      errs.push_back(a + ": missing value");
    }
  }
  cli.fabric = cli.has("--topology") || cli.has("--scenario");
  for (const auto& [flag, val] : cli.flags) {
    if (cli.fabric && flag->scope == kStar) {
      errs.push_back(std::string(flag->name) +
                     ": star-only flag, not valid with --topology or --scenario");
    } else if (!cli.fabric && flag->scope == kFabric) {
      errs.push_back(std::string(flag->name) +
                     ": fabric-only flag, needs --topology or --scenario");
    }
  }
  return cli;
}

// Fabric mode: the scenario file (or the defaults), then every fabric
// flag as its [fabric] key, in command-line order; the result's
// FabricScenario validation errors join `errs`.
exp::FabricScenarioConfig fabric_config(const Cli& cli, std::vector<std::string>& errs) {
  exp::FabricScenarioConfig cfg;
  // Without a file --degree defaults to 0, as in star mode; a file keeps
  // FabricScenarioConfig's 2.
  cfg.mapp_degree = 0.0;
  if (cli.has("--scenario")) {
    try {
      cfg = exp::load_scenario_file(cli.value("--scenario"));
    } catch (const std::invalid_argument& e) {
      errs.push_back(e.what());
    }
  }
  for (const auto& [flag, val] : cli.flags) {
    if (flag->key == nullptr) continue;
    if (Err e = exp::set_fabric_key(cfg, flag->key, val)) {
      errs.push_back(std::string(flag->name) + ": " + *e);
    } else if (std::string_view(flag->key) == "fault") {
      cfg.faults.events.back().origin = flag->name;
    }
  }
  for (std::string& e : exp::validate(cfg)) errs.push_back(std::move(e));
  return cfg;
}

exp::ScenarioConfig star_config(const Cli& cli, std::vector<std::string>& errs) {
  exp::ScenarioConfig cfg;
  for (const auto& [flag, val] : cli.flags) {
    if (flag->star == nullptr) continue;
    if (Err e = flag->star(cfg, val)) errs.push_back(std::string(flag->name) + ": " + *e);
  }
  return cfg;
}

// Turns on the recording the requested exports read.
template <typename Config>
void record_for_exports(Config& cfg, const Cli& cli) {
  cfg.record_decisions = cfg.record_decisions || cli.has("--decisions");
  cfg.record_flow_stats = cfg.record_flow_stats || cli.has("--flow-stats");
  cfg.profile = cfg.profile || cli.has("--profile");
}

bool wants_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

// Streams `fn(out)` into `path` (nothing for an empty path); false if the
// file cannot be opened.
template <typename Fn>
bool export_to(const std::string& path, Fn&& fn) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  fn(out);
  return true;
}

// Writes the exports both modes share from a finished run.
template <typename Run>
bool write_exports(Run& run, sim::Time now, const Cli& cli) {
  const std::string metrics = cli.value("--metrics");
  const std::string decisions = cli.value("--decisions");
  return export_to(metrics,
                   [&](std::ostream& o) {
                     if (wants_json(metrics)) {
                       run.metrics().write_json(o, now);
                     } else {
                       run.metrics().write_csv(o, now);
                     }
                   }) &&
         export_to(decisions,
                   [&](std::ostream& o) {
                     if (wants_json(decisions)) {
                       run.decisions().write_json(o);
                     } else {
                       run.decisions().write_csv(o);
                     }
                   }) &&
         export_to(cli.value("--flow-stats"),
                   [&](std::ostream& o) { run.flow_stats().write_csv(o); }) &&
         export_to(cli.value("--profile"), [&](std::ostream& o) { run.profiler().write_report(o); });
}

// The --json lines both modes open with.
void print_json_head(std::uint64_t seed, std::uint64_t events_executed) {
  std::printf("{\n  \"meta\": {\n    \"seed\": %llu,\n    \"events_executed\": %llu,\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(events_executed));
  std::printf("    \"log_lines\": %llu,\n",
              static_cast<unsigned long long>(obs::logger().lines_written()));
}

std::string p50_p99_p999(double p50, double p99, double p999) {
  return exp::fmt(p50, 1) + " / " + exp::fmt(p99, 1) + " / " + exp::fmt(p999, 1);
}

// The FCT table rows both modes print when flow stats are recorded.
template <typename Config, typename Results>
void add_fct_rows(exp::Table& t, const Config& cfg, const Results& r) {
  if (!cfg.record_flow_stats) return;
  t.add_row({"flow episodes", std::to_string(r.flow_episodes)});
  t.add_row({"FCT p50/p99/p99.9 (us)", p50_p99_p999(r.fct_p50_us, r.fct_p99_us, r.fct_p999_us)});
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// Fabric mode: reports the fabric-centric result set.
int run_fabric(exp::FabricScenarioConfig fcfg, const Cli& cli) {
  const auto wall_start = std::chrono::steady_clock::now();
  exp::FabricScenario fs(std::move(fcfg));
  const exp::FabricScenarioResults r = fs.run();
  if (fs.fabric_invariants() != nullptr && r.invariant_violations > 0) {
    std::fprintf(stderr, "%s", fs.fabric_invariants_report().c_str());
  }
  const double wall_ms = ms_since(wall_start);

  // In fabric mode --trace means the telemetry counter tracks (there is no
  // single "receiver" datapath to slice-trace).
  if (!write_exports(fs, fs.now(), cli) ||
      !export_to(cli.value("--trace"),
                 [&](std::ostream& o) { fs.telemetry().write_chrome_json(o); }) ||
      !export_to(cli.value("--telemetry"), [&](std::ostream& o) { fs.telemetry().write_csv(o); })) {
    return 1;
  }

  const exp::FabricScenarioConfig& cfg = fs.config();
  if (cli.has("--json")) {
    print_json_head(cfg.host.seed, fs.events_executed());
    if (cfg.telemetry) {
      std::printf("    \"telemetry_frames\": %llu,\n",
                  static_cast<unsigned long long>(fs.telemetry().frames_sampled()));
    }
    if (cfg.fidelity != exp::HostFidelity::kFull) {
      // Hybrid-only meta: keeps --fidelity full output byte-identical.
      std::printf("    \"fidelity\": \"%s\",\n", exp::host_fidelity_name(cfg.fidelity));
      std::printf("    \"hosts_full\": %d,\n", r.hosts_full);
      std::printf("    \"hosts_analytic\": %d,\n", r.hosts_analytic);
      std::printf("    \"promotions\": %llu,\n", static_cast<unsigned long long>(r.promotions));
      std::printf("    \"demotions\": %llu,\n", static_cast<unsigned long long>(r.demotions));
    }
    // Worker count and wall clocks vary run to run / machine to machine;
    // tools/run_diff.py skips these fields. cells/lookahead are
    // deterministic topology facts.
    std::printf("    \"shards\": %d,\n", fs.engine()->workers());
    std::printf("    \"cells\": %d,\n", fs.engine()->cell_count());
    std::printf("    \"lookahead_us\": %.3f,\n", fs.engine()->lookahead().us());
    std::printf("    \"epochs\": %llu,\n",
                static_cast<unsigned long long>(fs.engine()->epochs_entered()));
    std::printf("    \"shard_wall_ms\": %.1f,\n", fs.engine()->max_cell_wall_ms());
    std::printf("    \"worker_wall_ms\": [");
    for (int w = 0; w < fs.engine()->workers(); ++w) {
      std::printf("%s%.1f", w ? ", " : "", fs.engine()->worker_wall_ms(w));
    }
    std::printf("],\n");
    std::printf("    \"no_route_drops\": %llu,\n",
                static_cast<unsigned long long>(r.fabric_no_route_drops));
    std::printf("    \"wall_ms\": %.1f,\n", wall_ms);
    std::printf("    \"sim_us\": %.1f,\n", fs.now().us());
    std::printf("    \"config\": {\"topology\": \"%s\", \"hosts\": %d, \"switches\": %d, "
                "\"pattern\": \"%s\", \"flows_per_pair\": %d, \"degree\": %.2f, "
                "\"hostcc\": %s, \"lossless\": %s, \"cc\": \"%s\", "
                "\"warmup_ms\": %.1f, \"measure_ms\": %.1f}\n",
                cfg.topology.c_str(), fs.host_count(), fs.fabric().switch_count(),
                cfg.traffic == exp::FabricTraffic::kIncast ? "incast" : "all-to-all",
                cfg.flows_per_pair, cfg.mapp_degree, cfg.hostcc_enabled ? "true" : "false",
                cfg.lossless ? "true" : "false", transport::cc_kind_name(cfg.transport.cc),
                cfg.warmup.us() / 1000.0, cfg.measure.us() / 1000.0);
    std::printf("  },\n");
    std::printf("  \"net_tput_gbps\": %.4f,\n", r.net_tput_gbps);
    std::printf("  \"host_drop_rate_pct\": %.6f,\n", r.host_drop_rate_pct);
    std::printf("  \"fabric_drop_rate_pct\": %.6f,\n", r.fabric_drop_rate_pct);
    std::printf("  \"fabric_drop_frac\": %.3e,\n", r.fabric_drop_frac);
    std::printf("  \"fabric_drops\": %llu,\n", static_cast<unsigned long long>(r.fabric_drops));
    std::printf("  \"fabric_marks\": %llu,\n", static_cast<unsigned long long>(r.fabric_marks));
    std::printf("  \"fabric_no_route_drops\": %llu,\n",
                static_cast<unsigned long long>(r.fabric_no_route_drops));
    std::printf("  \"fabric_occupancy_peak_bytes\": %lld,\n",
                static_cast<long long>(r.fabric_occupancy_peak));
    std::printf("  \"delivered_pkts\": %llu,\n",
                static_cast<unsigned long long>(r.delivered_pkts));
    std::printf("  \"avg_iio_occupancy\": %.2f,\n", r.avg_iio_occupancy);
    std::printf("  \"avg_pcie_gbps\": %.2f,\n", r.avg_pcie_gbps);
    std::printf("  \"sender_timeouts\": %llu,\n",
                static_cast<unsigned long long>(r.sender_timeouts));
    std::printf("  \"invariant_violations\": %llu",
                static_cast<unsigned long long>(r.invariant_violations));
    if (cfg.lossless) {
      std::printf(",\n  \"pfc_xoff_frames\": %llu,\n",
                  static_cast<unsigned long long>(r.pfc_xoff_frames));
      std::printf("  \"pfc_xon_frames\": %llu,\n",
                  static_cast<unsigned long long>(r.pfc_xon_frames));
      std::printf("  \"pfc_muted_xons\": %llu,\n",
                  static_cast<unsigned long long>(r.pfc_muted_xons));
      std::printf("  \"pause_outstanding\": %d,\n", r.pause_outstanding);
      std::printf("  \"pause_max_outstanding\": %d,\n", r.pause_max_outstanding);
      std::printf("  \"pause_last_all_clear_us\": %.3f,\n", r.pause_last_all_clear_us);
      std::printf("  \"pause_tree_depth_peak\": %d,\n", r.pause_tree_depth_peak);
      std::printf("  \"storm_breaks\": %llu", static_cast<unsigned long long>(r.storm_breaks));
    }
    if (cfg.workload.enabled) {
      std::printf(
          ",\n  \"workload\": {\"arrival\": \"%s\", \"load\": %.3f, \"size_cdf\": \"%s\", "
          "\"flows_started\": %llu, \"flows_completed\": %llu, \"flows_skipped\": %llu, "
          "\"conn_pool_opens\": %llu, \"conn_pool_reuses\": %llu, \"orphan_packets\": %llu}",
          workload::arrival_kind_name(cfg.workload.arrival), cfg.workload.load,
          fs.workload_cdf().name().c_str(), static_cast<unsigned long long>(r.flows_started),
          static_cast<unsigned long long>(r.flows_completed),
          static_cast<unsigned long long>(r.flows_skipped),
          static_cast<unsigned long long>(r.conn_pool_opens),
          static_cast<unsigned long long>(r.conn_pool_reuses),
          static_cast<unsigned long long>(r.orphan_packets));
      if (cfg.workload.rpc.enabled) {
        std::printf(
            ",\n  \"rpc\": {\"trees_started\": %llu, \"trees_completed\": %llu, "
            "\"trees_skipped\": %llu, \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}",
            static_cast<unsigned long long>(r.rpc_trees_started),
            static_cast<unsigned long long>(r.rpc_trees_completed),
            static_cast<unsigned long long>(r.rpc_trees_skipped), r.rpc_p50_us, r.rpc_p99_us,
            r.rpc_p999_us);
      }
    }
    if (cfg.record_flow_stats) {
      std::ostringstream fct;
      fs.flow_stats().write_json_summary(fct);
      std::printf(",\n  \"fct\": %s", fct.str().c_str());
    }
    std::printf("\n}\n");
    return 0;
  }

  exp::Table t({"metric", "value"});
  t.add_row({"topology", cfg.topology + " (" + std::to_string(fs.host_count()) + " hosts, " +
                             std::to_string(fs.fabric().switch_count()) + " switches)"});
  t.add_row({"NetApp-T goodput (Gbps)", exp::fmt(r.net_tput_gbps)});
  t.add_row({"fabric drop rate (%)", exp::fmt_rate(r.fabric_drop_rate_pct)});
  t.add_row({"host drop rate (%)", exp::fmt_rate(r.host_drop_rate_pct)});
  t.add_row({"fabric drops / marks", std::to_string(r.fabric_drops) + " / " +
                                         std::to_string(r.fabric_marks)});
  t.add_row({"peak shared-buffer occupancy (KiB)",
             exp::fmt(static_cast<double>(r.fabric_occupancy_peak) / 1024.0, 1)});
  t.add_row({"avg I_S (cachelines)", exp::fmt(r.avg_iio_occupancy, 1)});
  if (cfg.lossless) {
    t.add_row({"PFC XOFF / XON frames", std::to_string(r.pfc_xoff_frames) + " / " +
                                            std::to_string(r.pfc_xon_frames)});
    t.add_row({"pause pairs outstanding / peak", std::to_string(r.pause_outstanding) + " / " +
                                                     std::to_string(r.pause_max_outstanding)});
    t.add_row({"pause tree depth peak", std::to_string(r.pause_tree_depth_peak)});
    if (r.pfc_muted_xons > 0) {
      t.add_row({"muted XONs (pfc_mute)", std::to_string(r.pfc_muted_xons)});
    }
    if (r.storm_breaks > 0) {
      t.add_row({"storm-breaker interventions", std::to_string(r.storm_breaks)});
    }
  }
  if (cfg.workload.enabled) {
    t.add_row({"workload (" + std::string(workload::arrival_kind_name(cfg.workload.arrival)) +
                   ", " + fs.workload_cdf().name() + ")",
               "load " + exp::fmt(cfg.workload.load, 2)});
    t.add_row({"flows started/completed/skipped",
               std::to_string(r.flows_started) + " / " + std::to_string(r.flows_completed) +
                   " / " + std::to_string(r.flows_skipped)});
    t.add_row({"conn pool opens/reuses", std::to_string(r.conn_pool_opens) + " / " +
                                             std::to_string(r.conn_pool_reuses)});
    t.add_row({"orphan packets", std::to_string(r.orphan_packets)});
    if (cfg.workload.rpc.enabled) {
      t.add_row({"RPC trees completed/skipped", std::to_string(r.rpc_trees_completed) + " / " +
                                                    std::to_string(r.rpc_trees_skipped)});
      t.add_row({"RPC fan-in p50/p99/p99.9 (us)",
                 p50_p99_p999(r.rpc_p50_us, r.rpc_p99_us, r.rpc_p999_us)});
    }
  }
  add_fct_rows(t, cfg, r);
  if (cfg.fidelity != exp::HostFidelity::kFull) {
    t.add_row({"fidelity (full / analytic hosts)", std::string(exp::host_fidelity_name(
                                                       cfg.fidelity)) +
                                                       ": " + std::to_string(r.hosts_full) +
                                                       " / " + std::to_string(r.hosts_analytic)});
    t.add_row({"promotions / demotions", std::to_string(r.promotions) + " / " +
                                             std::to_string(r.demotions)});
  }
  if (cfg.check_invariants) {
    t.add_row({"invariant violations", std::to_string(r.invariant_violations)});
  }
  t.print();
  return 0;
}

// Star mode: the paper testbed's result set.
int run_star(const exp::ScenarioConfig& cfg, const Cli& cli) {
  const auto wall_start = std::chrono::steady_clock::now();
  exp::Scenario s(cfg);
  const exp::ScenarioResults r = s.run();
  if (s.invariants() != nullptr && r.invariant_violations > 0) {
    std::fprintf(stderr, "%s", s.invariants()->report().c_str());
  }
  const double wall_ms = ms_since(wall_start);

  if (!write_exports(s, s.simulator().now(), cli) ||
      !export_to(cli.value("--trace"), [&](std::ostream& o) { s.tracer().write_chrome_json(o); })) {
    return 1;
  }

  if (cli.has("--json")) {
    const char* cc_name = transport::cc_kind_name(cfg.transport.cc);
    print_json_head(cfg.host.seed, s.simulator().events_executed());
    std::printf("    \"wall_ms\": %.1f,\n", wall_ms);
    std::printf("    \"sim_us\": %.1f,\n", s.simulator().now().us());
    std::printf("    \"config\": {\"degree\": %.2f, \"ddio\": %s, \"hostcc\": %s, "
                "\"bt_gbps\": %.2f, \"it\": %.1f, \"cc\": \"%s\", \"mtu\": %lld, "
                "\"flows\": %d, \"senders\": %d, \"warmup_ms\": %.1f, \"measure_ms\": %.1f}\n",
                cfg.mapp_degree, cfg.host.ddio_enabled ? "true" : "false",
                cfg.hostcc_enabled ? "true" : "false", cfg.hostcc.target_bandwidth.as_gbps(),
                cfg.hostcc.iio_threshold, cc_name, static_cast<long long>(cfg.transport.mtu),
                cfg.netapp_flows, cfg.senders, cfg.warmup.us() / 1000.0,
                cfg.measure.us() / 1000.0);
    std::printf("  },\n");
    std::printf("  \"net_tput_gbps\": %.4f,\n", r.net_tput_gbps);
    std::printf("  \"host_drop_rate_pct\": %.6f,\n", r.host_drop_rate_pct);
    std::printf("  \"fabric_drop_rate_pct\": %.6f,\n", r.fabric_drop_rate_pct);
    std::printf("  \"netapp_mem_util\": %.4f,\n", r.net_mem_util);
    std::printf("  \"mapp_mem_util\": %.4f,\n", r.mapp_mem_util);
    std::printf("  \"avg_iio_occupancy\": %.2f,\n", r.avg_iio_occupancy);
    std::printf("  \"avg_pcie_gbps\": %.2f,\n", r.avg_pcie_gbps);
    std::printf("  \"ecn_marked_pkts\": %llu,\n",
                static_cast<unsigned long long>(r.ecn_marked_pkts));
    std::printf("  \"sender_timeouts\": %llu,\n",
                static_cast<unsigned long long>(r.sender_timeouts));
    std::printf("  \"invariant_violations\": %llu,\n",
                static_cast<unsigned long long>(r.invariant_violations));
    if (cfg.record_flow_stats) {
      std::ostringstream fct;
      s.flow_stats().write_json_summary(fct);
      std::printf("  \"fct\": %s,\n", fct.str().c_str());
    }
    std::printf("  \"rpc\": [");
    for (std::size_t i = 0; i < r.rpc_latency.size(); ++i) {
      const auto& l = r.rpc_latency[i];
      std::printf("%s\n    {\"size\": %lld, \"count\": %llu, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f, \"p999_us\": %.1f}",
                  i ? "," : "", static_cast<long long>(cfg.rpc_sizes[i]),
                  static_cast<unsigned long long>(l.count), l.p50.us(), l.p99.us(),
                  l.p999.us());
    }
    std::printf("%s]\n}\n", r.rpc_latency.empty() ? "" : "\n  ");
    return 0;
  }

  exp::Table t({"metric", "value"});
  t.add_row({"NetApp-T goodput (Gbps)", exp::fmt(r.net_tput_gbps)});
  t.add_row({"host drop rate (%)", exp::fmt_rate(r.host_drop_rate_pct)});
  t.add_row({"fabric drop rate (%)", exp::fmt_rate(r.fabric_drop_rate_pct)});
  t.add_row({"NetApp memory util", exp::fmt(r.net_mem_util)});
  t.add_row({"MApp memory util", exp::fmt(r.mapp_mem_util)});
  if (cfg.record_signals) {
    t.add_row({"avg I_S (cachelines)", exp::fmt(r.avg_iio_occupancy, 1)});
    t.add_row({"avg B_S (Gbps)", exp::fmt(r.avg_pcie_gbps, 1)});
  }
  if (cfg.hostcc_enabled) {
    t.add_row({"host ECN marks", std::to_string(r.ecn_marked_pkts)});
  }
  add_fct_rows(t, cfg, r);
  if (cfg.check_invariants) {
    t.add_row({"invariant violations", std::to_string(r.invariant_violations)});
  }
  for (std::size_t i = 0; i < r.rpc_latency.size(); ++i) {
    const auto& l = r.rpc_latency[i];
    t.add_row({"RPC " + std::to_string(cfg.rpc_sizes[i]) + "B p50/p99/p99.9 (us)",
               p50_p99_p999(l.p50.us(), l.p99.us(), l.p999.us())});
  }
  t.print();
  return 0;
}

// Every command-line problem becomes one exception, after the usage text.
void throw_if_any(const std::vector<std::string>& errs, const char* argv0) {
  if (errs.empty()) return;
  print_usage(argv0);
  std::string msg = "invalid command line:";
  for (const std::string& e : errs) msg += "\n  - " + e;
  throw std::invalid_argument(msg);
}

int run_cli(int argc, char** argv) {
  std::vector<std::string> errs;
  const Cli cli = scan(argc, argv, errs);
  if (cli.has("--log-level")) {
    const std::string level = cli.value("--log-level");
    const obs::LogLevel parsed = obs::parse_log_level(level.c_str());
    if (parsed == obs::LogLevel::kOff && level != "off") {
      errs.push_back("--log-level: " + *expected("trace|debug|info|warn|error|off", level));
    }
    obs::logger().set_level(parsed);
    obs::logger().set_sink(stderr);
  }

  if (cli.fabric) {
    exp::FabricScenarioConfig cfg = fabric_config(cli, errs);
    throw_if_any(errs, argv[0]);
    record_for_exports(cfg, cli);
    cfg.telemetry = cfg.telemetry || cli.has("--telemetry") || cli.has("--trace");
    return run_fabric(std::move(cfg), cli);
  }
  exp::ScenarioConfig cfg = star_config(cli, errs);
  throw_if_any(errs, argv[0]);
  record_for_exports(cfg, cli);
  cfg.trace_packets = cli.has("--trace");
  return run_star(cfg, cli);
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Aggregated command-line and config validation (flags, scenario file,
    // fabric, topology, faults).
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

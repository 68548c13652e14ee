// hostcc_sim: command-line experiment runner for the hostcc-sim library.
//
//   hostcc_sim [--degree N] [--ddio] [--hostcc] [--bt GBPS] [--it LINES]
//              [--cc dctcp|reno|swift] [--mtu BYTES] [--flows N]
//              [--senders N] [--rpc BYTES]... [--mba-level L]
//              [--iommu-miss-rate F] [--warmup MS] [--measure MS]
//              [--seed N] [--signals] [--json]
//              [--trace FILE] [--metrics FILE] [--decisions FILE]
//              [--flow-bytes N] [--flow-stats FILE] [--profile FILE]
//              [--log-level LEVEL]
//
// Passing --topology switches to the rack-scale FabricScenario (multi-
// switch fabric, N full host models):
//
//   hostcc_sim --topology leaf-spine:4x4 [--hosts N]
//              [--pattern incast|all-to-all] [--flows-per-pair N]
//              [--degree N] [--hostcc] [--fault SPEC]...
//              [--lossless] [--storm-breaker] [--cc dcqcn]
//              [--telemetry FILE] [--trace FILE]
//
// Runs one scenario and prints the measured results as a table or JSON —
// the fastest way to explore the host-congestion parameter space without
// writing code. The observability flags export the run's internals:
// --trace writes a Chrome trace_event JSON (open in Perfetto): packet
// lifecycle slices in single-host mode, per-switch/per-port occupancy
// counter tracks in fabric mode. --metrics dumps the end-of-run metrics
// registry (.json for JSON, else CSV), --decisions the hostCC decision
// log (same extension rule), --flow-stats the per-flow FCT record,
// --telemetry the sampled fabric occupancy time-series as wide CSV, and
// --profile the simulator self-profiler report (wall-clock; the one
// deliberately non-deterministic output).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/fabric_scenario.h"
#include "exp/scenario.h"
#include "exp/scenario_file.h"
#include "exp/table.h"
#include "obs/log.h"

using namespace hostcc;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --degree N          MApp intensity 0..3 (x8 cores)     [0]\n"
               "  --sender-degree N   MApp intensity at the sender       [0]\n"
               "  --ddio              enable DDIO at the receiver\n"
               "  --hostcc            enable hostCC at the receiver\n"
               "  --sender-hostcc     enable the sender-side response\n"
               "  --bt GBPS           hostCC target bandwidth B_T        [80]\n"
               "  --it LINES          hostCC IIO threshold I_T           [70]\n"
               "  --cc NAME           dctcp | reno | swift | dcqcn       [dctcp]\n"
               "  --mtu BYTES         wire MTU                           [4096]\n"
               "  --flows N           NetApp-T flows                     [4]\n"
               "  --senders N         sender hosts (incast)              [1]\n"
               "  --rpc BYTES         add a NetApp-L RPC size (repeat)\n"
               "  --mba-level L       hard-code the MBA level 0..4\n"
               "  --iommu-miss-rate F enable IOMMU with IOTLB miss rate\n"
               "  --warmup MS         warmup milliseconds                [250]\n"
               "  --measure MS        measurement milliseconds           [150]\n"
               "  --seed N            RNG seed                           [1]\n"
               "  --fault SPEC        inject a fault (repeat); SPEC is\n"
               "                      <kind>@<start_us>+<dur_us>[:<param>][:<target>]\n"
               "                      kinds: msr_stall msr_freeze msr_torn mba_fail\n"
               "                      mba_delay link_down link_degrade port_down\n"
               "                      sampler_pause pause_storm pfc_mute\n"
               "                      (dur 0 = until end of run)\n"
               "  --no-invariants     disable the runtime invariant checker\n"
               "  --topology SPEC     rack-scale fabric run; SPEC is star:<n>,\n"
               "                      leaf-spine:<l>x<h>[x<s>], or fat-tree:<k>\n"
               "  --scenario FILE     fabric run driven by a scenario config file\n"
               "                      ([fabric]/[workload]/[rpc] sections; see\n"
               "                      docs/WORKLOADS.md). --shards/--seed/\n"
               "                      --fidelity/--warmup/--measure override the\n"
               "                      file; other fabric flags are ignored\n"
               "  --hosts N           participating hosts (0 = all in topology)\n"
               "  --shards N          fabric mode: worker threads, >= 1 [1]\n"
               "                      (output byte-identical for every N)\n"
               "  --pattern NAME      incast | all-to-all                [incast]\n"
               "  --flows-per-pair N  long flows per (sender, dest) pair [2]\n"
               "  --fabric-buffer N   switch shared-buffer size in KiB  [2048]\n"
               "  --lossless          fabric mode: per-priority PFC on every\n"
               "                      switch + NIC watermark backpressure\n"
               "  --storm-breaker     lossless mode: force-XON detected pause\n"
               "                      deadlock cycles instead of wedging\n"
               "  --fidelity MODE     fabric mode: full | analytic | auto [full]\n"
               "                      auto runs hosts flow-level and promotes\n"
               "                      them to full HostModels on congestion\n"
               "  --promote-threshold N  auto mode: leaf delivery-port queue\n"
               "                      bytes that triggers promotion    [65536]\n"
               "  --messages-per-flow N  fabric mode: cap each closed-loop\n"
               "                      flow at N messages (0 = endless)    [0]\n"
               "  --signals           record and report I_S/B_S averages\n"
               "  --json              machine-readable output\n"
               "  --trace FILE        Chrome trace JSON: packet lifecycle\n"
               "                      (single-host) / fabric counter tracks\n"
               "  --metrics FILE      metrics registry dump (.json or CSV)\n"
               "  --decisions FILE    hostCC decision log (.json or CSV)\n"
               "  --flow-bytes N      closed-loop message size per flow (FCT)\n"
               "  --flow-stats FILE   per-flow FCT/bytes record (CSV)\n"
               "  --telemetry FILE    fabric occupancy time-series (CSV)\n"
               "  --profile FILE      simulator self-profiler report\n"
               "  --log-level LEVEL   trace|debug|info|warn|error|off   [off]\n",
               argv0);
  std::exit(2);
}

double num_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  return std::atof(argv[++i]);
}

const char* str_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  return argv[++i];
}

bool wants_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

// Export file paths shared by both scenario modes (empty = don't write).
struct ExportPaths {
  std::string trace;
  std::string metrics;
  std::string decisions;
  std::string flow_stats;
  std::string telemetry;  // fabric mode only
  std::string profile;
};

// Opens `path` for writing and streams `fn(out)` into it; false on error.
template <typename Fn>
bool export_to(const std::string& path, Fn&& fn) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  fn(out);
  return true;
}

}  // namespace

// Rack-scale fabric mode (--topology): builds a FabricScenarioConfig from
// the shared flags and reports the fabric-centric result set. Reuses the
// single-star flags where they make sense (--degree, --hostcc, --fault,
// --warmup/--measure, --seed, --metrics).
int run_fabric(exp::FabricScenarioConfig fcfg, bool json, const ExportPaths& paths) {
  const auto wall_start = std::chrono::steady_clock::now();
  exp::FabricScenario fs(std::move(fcfg));
  const exp::FabricScenarioResults r = fs.run();
  if (fs.fabric_invariants() != nullptr && r.invariant_violations > 0) {
    std::fprintf(stderr, "%s", fs.fabric_invariants_report().c_str());
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();

  if (!paths.metrics.empty() &&
      !export_to(paths.metrics, [&](std::ostream& out) {
        if (wants_json(paths.metrics)) {
          fs.metrics().write_json(out, fs.now());
        } else {
          fs.metrics().write_csv(out, fs.now());
        }
      })) {
    return 1;
  }
  // In fabric mode --trace means the telemetry counter tracks (there is no
  // single "receiver" datapath to slice-trace).
  if (!paths.trace.empty() &&
      !export_to(paths.trace,
                 [&](std::ostream& out) { fs.telemetry().write_chrome_json(out); })) {
    return 1;
  }
  if (!paths.telemetry.empty() &&
      !export_to(paths.telemetry, [&](std::ostream& out) { fs.telemetry().write_csv(out); })) {
    return 1;
  }
  if (!paths.decisions.empty() &&
      !export_to(paths.decisions, [&](std::ostream& out) {
        if (wants_json(paths.decisions)) {
          fs.decisions().write_json(out);
        } else {
          fs.decisions().write_csv(out);
        }
      })) {
    return 1;
  }
  if (!paths.flow_stats.empty() &&
      !export_to(paths.flow_stats, [&](std::ostream& out) { fs.flow_stats().write_csv(out); })) {
    return 1;
  }
  if (!paths.profile.empty() &&
      !export_to(paths.profile, [&](std::ostream& out) { fs.profiler().write_report(out); })) {
    return 1;
  }

  const exp::FabricScenarioConfig& cfg = fs.config();
  if (json) {
    std::printf("{\n");
    std::printf("  \"meta\": {\n");
    std::printf("    \"seed\": %llu,\n", static_cast<unsigned long long>(cfg.host.seed));
    std::printf("    \"events_executed\": %llu,\n",
                static_cast<unsigned long long>(fs.events_executed()));
    std::printf("    \"log_lines\": %llu,\n",
                static_cast<unsigned long long>(obs::logger().lines_written()));
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
      t.add_row({"RPC fan-in p50/p99/p99.9 (us)", exp::fmt(r.rpc_p50_us, 1) + " / " +
                                                      exp::fmt(r.rpc_p99_us, 1) + " / " +
                                                      exp::fmt(r.rpc_p999_us, 1)});
    }
  }
  if (cfg.record_flow_stats) {
    t.add_row({"flow episodes", std::to_string(r.flow_episodes)});
    t.add_row({"FCT p50/p99/p99.9 (us)", exp::fmt(r.fct_p50_us, 1) + " / " +
                                             exp::fmt(r.fct_p99_us, 1) + " / " +
                                             exp::fmt(r.fct_p999_us, 1)});
  }
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

int run_cli(int argc, char** argv) {
  exp::ScenarioConfig cfg;
  bool json = false;
  ExportPaths paths;
  std::string topology;
  std::string scenario_path;
  bool shards_set = false, seed_set = false, fidelity_set = false;
  int fabric_hosts = 0;
  int fabric_shards = 1;
  int flows_per_pair = 2;
  int fabric_buffer_kib = 0;  // 0 = FabricSwitchConfig default
  bool lossless = false;
  bool storm_breaker = false;
  bool all_to_all = false;
  bool warmup_set = false, measure_set = false;
  exp::HostFidelity fidelity = exp::HostFidelity::kFull;
  sim::Bytes promote_threshold = 0;  // 0 = FabricScenarioConfig default
  std::uint64_t messages_per_flow = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--degree") {
      cfg.mapp_degree = num_arg(argc, argv, i);
    } else if (a == "--sender-degree") {
      cfg.sender_mapp_degree = num_arg(argc, argv, i);
    } else if (a == "--ddio") {
      cfg.host.ddio_enabled = true;
      cfg.hostcc.iio_threshold = 50.0;  // §5.2 default for DDIO
    } else if (a == "--hostcc") {
      cfg.hostcc_enabled = true;
    } else if (a == "--sender-hostcc") {
      cfg.sender_local_response = true;
    } else if (a == "--bt") {
      cfg.hostcc.target_bandwidth = sim::Bandwidth::gbps(num_arg(argc, argv, i));
    } else if (a == "--it") {
      cfg.hostcc.iio_threshold = num_arg(argc, argv, i);
    } else if (a == "--cc") {
      if (i + 1 >= argc) usage(argv[0]);
      const std::string name = argv[++i];
      if (name == "dctcp") {
        cfg.transport.cc = transport::CcKind::kDctcp;
      } else if (name == "reno") {
        cfg.transport.cc = transport::CcKind::kReno;
      } else if (name == "swift") {
        cfg.transport.cc = transport::CcKind::kSwift;
      } else if (name == "dcqcn") {
        cfg.transport.cc = transport::CcKind::kDcqcn;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--mtu") {
      cfg.transport.mtu = static_cast<sim::Bytes>(num_arg(argc, argv, i));
    } else if (a == "--flows") {
      cfg.netapp_flows = static_cast<int>(num_arg(argc, argv, i));
    } else if (a == "--senders") {
      cfg.senders = static_cast<int>(num_arg(argc, argv, i));
    } else if (a == "--rpc") {
      cfg.rpc_sizes.push_back(static_cast<sim::Bytes>(num_arg(argc, argv, i)));
    } else if (a == "--mba-level") {
      cfg.fixed_mba_level = static_cast<int>(num_arg(argc, argv, i));
    } else if (a == "--iommu-miss-rate") {
      cfg.host.iommu_enabled = true;
      cfg.host.iotlb_miss_rate = num_arg(argc, argv, i);
    } else if (a == "--warmup") {
      cfg.warmup = sim::Time::milliseconds(num_arg(argc, argv, i));
      warmup_set = true;
    } else if (a == "--measure") {
      cfg.measure = sim::Time::milliseconds(num_arg(argc, argv, i));
      measure_set = true;
    } else if (a == "--topology") {
      topology = str_arg(argc, argv, i);
    } else if (a == "--scenario") {
      scenario_path = str_arg(argc, argv, i);
    } else if (a == "--hosts") {
      fabric_hosts = static_cast<int>(num_arg(argc, argv, i));
    } else if (a == "--shards") {
      fabric_shards = static_cast<int>(num_arg(argc, argv, i));
      shards_set = true;
    } else if (a == "--pattern") {
      const std::string name = str_arg(argc, argv, i);
      if (name == "incast") {
        all_to_all = false;
      } else if (name == "all-to-all") {
        all_to_all = true;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--flows-per-pair") {
      flows_per_pair = static_cast<int>(num_arg(argc, argv, i));
    } else if (a == "--fabric-buffer") {
      fabric_buffer_kib = static_cast<int>(num_arg(argc, argv, i));
    } else if (a == "--lossless") {
      lossless = true;
    } else if (a == "--storm-breaker") {
      storm_breaker = true;
    } else if (a == "--fidelity") {
      const std::string name = str_arg(argc, argv, i);
      if (name == "full") {
        fidelity = exp::HostFidelity::kFull;
      } else if (name == "analytic") {
        fidelity = exp::HostFidelity::kAnalytic;
      } else if (name == "auto") {
        fidelity = exp::HostFidelity::kAuto;
      } else {
        usage(argv[0]);
      }
      fidelity_set = true;
    } else if (a == "--promote-threshold") {
      promote_threshold = static_cast<sim::Bytes>(num_arg(argc, argv, i));
    } else if (a == "--messages-per-flow") {
      messages_per_flow = static_cast<std::uint64_t>(num_arg(argc, argv, i));
    } else if (a == "--seed") {
      cfg.host.seed = static_cast<std::uint64_t>(num_arg(argc, argv, i));
      seed_set = true;
    } else if (a == "--fault") {
      if (auto err = cfg.faults.add_spec(str_arg(argc, argv, i))) {
        std::fprintf(stderr, "%s\n", err->c_str());
        return 2;
      }
    } else if (a == "--no-invariants") {
      cfg.check_invariants = false;
    } else if (a == "--signals") {
      cfg.record_signals = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--trace") {
      paths.trace = str_arg(argc, argv, i);
      cfg.trace_packets = true;
    } else if (a == "--metrics") {
      paths.metrics = str_arg(argc, argv, i);
    } else if (a == "--decisions") {
      paths.decisions = str_arg(argc, argv, i);
      cfg.record_decisions = true;
    } else if (a == "--flow-bytes") {
      cfg.netapp_flow_bytes = static_cast<sim::Bytes>(num_arg(argc, argv, i));
      cfg.record_flow_stats = true;
    } else if (a == "--flow-stats") {
      paths.flow_stats = str_arg(argc, argv, i);
      cfg.record_flow_stats = true;
    } else if (a == "--telemetry") {
      paths.telemetry = str_arg(argc, argv, i);
    } else if (a == "--profile") {
      paths.profile = str_arg(argc, argv, i);
      cfg.profile = true;
    } else if (a == "--log-level") {
      obs::logger().set_level(obs::parse_log_level(str_arg(argc, argv, i)));
      obs::logger().set_sink(stderr);
    } else {
      usage(argv[0]);
    }
  }

  if (!scenario_path.empty()) {
    // Scenario-file mode: the file is the source of truth; only the
    // execution-policy and window flags override it (so CI can cmp
    // --shards 1 vs --shards 2 of the same committed file).
    exp::FabricScenarioConfig fcfg = exp::load_scenario_file(scenario_path);
    if (shards_set) fcfg.shards = fabric_shards;
    if (seed_set) fcfg.host.seed = cfg.host.seed;
    if (fidelity_set) fcfg.fidelity = fidelity;
    if (warmup_set) fcfg.warmup = cfg.warmup;
    if (measure_set) fcfg.measure = cfg.measure;
    if (!paths.flow_stats.empty()) fcfg.record_flow_stats = true;
    fcfg.telemetry = fcfg.telemetry || !paths.telemetry.empty() || !paths.trace.empty();
    if (cfg.profile) fcfg.profile = true;
    return run_fabric(std::move(fcfg), json, paths);
  }

  if (!topology.empty()) {
    exp::FabricScenarioConfig fcfg;
    fcfg.topology = topology;
    fcfg.hosts = fabric_hosts;
    fcfg.shards = fabric_shards;
    fcfg.host = cfg.host;
    fcfg.transport = cfg.transport;
    fcfg.traffic = all_to_all ? exp::FabricTraffic::kAllToAll : exp::FabricTraffic::kIncast;
    fcfg.flows_per_pair = flows_per_pair;
    if (fabric_buffer_kib > 0) {
      fcfg.fabric.buffer_bytes = static_cast<sim::Bytes>(fabric_buffer_kib) * sim::kKiB;
    }
    fcfg.lossless = lossless;
    fcfg.storm_breaker = storm_breaker;
    fcfg.mapp_degree = cfg.mapp_degree;
    fcfg.hostcc_enabled = cfg.hostcc_enabled;
    fcfg.hostcc = cfg.hostcc;
    fcfg.faults = cfg.faults;
    fcfg.check_invariants = cfg.check_invariants;
    fcfg.flow_bytes = cfg.netapp_flow_bytes;
    fcfg.record_flow_stats = cfg.record_flow_stats;
    fcfg.record_decisions = cfg.record_decisions;
    fcfg.flow_stats = cfg.flow_stats;
    fcfg.telemetry = !paths.telemetry.empty() || !paths.trace.empty();
    fcfg.profile = cfg.profile;
    fcfg.fidelity = fidelity;
    if (promote_threshold > 0) fcfg.promote_threshold = promote_threshold;
    fcfg.messages_per_flow = messages_per_flow;
    // FabricScenario's own (much shorter) windows apply unless overridden.
    if (warmup_set) fcfg.warmup = cfg.warmup;
    if (measure_set) fcfg.measure = cfg.measure;
    return run_fabric(std::move(fcfg), json, paths);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  exp::Scenario s(cfg);
  const exp::ScenarioResults r = s.run();
  if (s.invariants() != nullptr && r.invariant_violations > 0) {
    std::fprintf(stderr, "%s", s.invariants()->report().c_str());
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();

  if (!paths.trace.empty() &&
      !export_to(paths.trace, [&](std::ostream& out) { s.tracer().write_chrome_json(out); })) {
    return 1;
  }
  if (!paths.metrics.empty() &&
      !export_to(paths.metrics, [&](std::ostream& out) {
        if (wants_json(paths.metrics)) {
          s.metrics().write_json(out, s.simulator().now());
        } else {
          s.metrics().write_csv(out, s.simulator().now());
        }
      })) {
    return 1;
  }
  if (!paths.decisions.empty() &&
      !export_to(paths.decisions, [&](std::ostream& out) {
        if (wants_json(paths.decisions)) {
          s.decisions().write_json(out);
        } else {
          s.decisions().write_csv(out);
        }
      })) {
    return 1;
  }
  if (!paths.flow_stats.empty() &&
      !export_to(paths.flow_stats, [&](std::ostream& out) { s.flow_stats().write_csv(out); })) {
    return 1;
  }
  if (!paths.profile.empty() &&
      !export_to(paths.profile, [&](std::ostream& out) { s.profiler().write_report(out); })) {
    return 1;
  }

  if (json) {
    const char* cc_name = transport::cc_kind_name(cfg.transport.cc);
    std::printf("{\n");
    std::printf("  \"meta\": {\n");
    std::printf("    \"seed\": %llu,\n", static_cast<unsigned long long>(cfg.host.seed));
    std::printf("    \"events_executed\": %llu,\n",
                static_cast<unsigned long long>(s.simulator().events_executed()));
    std::printf("    \"log_lines\": %llu,\n",
                static_cast<unsigned long long>(obs::logger().lines_written()));
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
  if (cfg.record_flow_stats) {
    t.add_row({"flow episodes", std::to_string(r.flow_episodes)});
    t.add_row({"FCT p50/p99/p99.9 (us)", exp::fmt(r.fct_p50_us, 1) + " / " +
                                             exp::fmt(r.fct_p99_us, 1) + " / " +
                                             exp::fmt(r.fct_p999_us, 1)});
  }
  if (cfg.check_invariants) {
    t.add_row({"invariant violations", std::to_string(r.invariant_violations)});
  }
  for (std::size_t i = 0; i < r.rpc_latency.size(); ++i) {
    const auto& l = r.rpc_latency[i];
    t.add_row({"RPC " + std::to_string(cfg.rpc_sizes[i]) + "B p50/p99/p99.9 (us)",
               exp::fmt(l.p50.us(), 1) + " / " + exp::fmt(l.p99.us(), 1) + " / " +
                   exp::fmt(l.p999.us(), 1)});
  }
  t.print();
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Aggregated config validation (scenario, fabric, topology, faults).
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

// hostcc_bench: one repetition of one benchmark workload, timed from the
// outside. perfbench/run.py starts one process per repetition and reads
// the JSON object this prints on stdout.
//
//   hostcc_bench --workload NAME --seed N --workloads DIR [--setups K]
//                [--trace] [--smoke]
//
// Timing uses only public calls: the scenario constructor (set-up),
// run_for() / run_warmup() / run_measure() (the run), and getrusage()
// around each slice of the run for CPU time over every thread. The engine
// accessors (events_executed, cell_wall_ms, epochs_entered) and the
// results structs supply the rest.
//
// The run is timed in slices. The scenario is built with zero-length
// warmup and measure windows; this program advances it through the real
// windows with run_for() in kSlices equal pieces, calling run_warmup()
// between the two phases (which then only marks the measurement start) and
// run_measure() at the end (which then only collects the results).
// Simulator::run_until() executes every event up to its deadline and parks
// the clock there, and the sharded engine resumes mid-epoch without
// re-firing hooks, so the sliced run executes exactly the events of one
// run() call. run.py keeps each slice's least time across repetitions, so
// a burst of interference in one repetition does not count.
//
// --trace enables the existing SimProfiler (cfg.profile) and reports its
// tags summed by suffix (/nic, /iio, /memctrl, /cpu, /transport, /forward)
// across hosts and switches. --smoke shrinks every window to 1 + 1 ms.
// An untraced repetition times K constructions (default 1): the one its
// run uses, then K - 1 fresh ones after the run.
//
// The "results" object holds only simulated outcomes and engine counters
// that are deterministic for a fixed seed; run.py hashes it into the
// sim_digest. Everything wall-clock lives outside it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/fabric_scenario.h"
#include "exp/scenario.h"
#include "exp/scenario_file.h"

using namespace hostcc;

namespace {

using Clock = std::chrono::steady_clock;

// Slices per run, shared between the two phases in proportion to their
// simulated length (at least one each).
constexpr int kSlices = 40;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Peak resident set of this program, in KiB. VmHWM covers only the
// address space since exec; getrusage()'s ru_maxrss (and a parent's
// wait4()) would also carry the high-water mark of the process that
// forked us, which for a Python parent exceeds a small workload's own.
std::uint64_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

// Ordered key -> already-formatted JSON value.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(int v) { return std::to_string(v); }

std::string array(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) s += (i ? ", " : "") + num(xs[i]);
  return s + "]";
}

void print_object(const char* key, const Fields& f, bool last) {
  std::printf("  \"%s\": {", key);
  for (std::size_t i = 0; i < f.size(); ++i) {
    std::printf("%s\"%s\": %s", i ? ", " : "", f[i].first.c_str(), f[i].second.c_str());
  }
  std::printf("}%s\n", last ? "" : ",");
}

struct Windows {
  sim::Time warmup;
  sim::Time measure;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<double> slice_sim_ms, slice_wall_s, slice_cpu_s;
  Fields engine;  // wall-clock engine view (sharded runs only)
  Fields profile;  // --trace only
  Fields results;  // deterministic

  double wall_s() const {
    double w = 0.0;
    for (double s : slice_wall_s) w += s;
    return w;
  }
};

sim::Time now_of(exp::Scenario& s) { return s.simulator().now(); }
sim::Time now_of(exp::FabricScenario& s) { return s.now(); }

// Advances `s` by `phase` in `n` equal slices, timing each.
template <class S>
void run_slices(S& s, sim::Time phase, int n, Report& rep) {
  const sim::Time start = now_of(s);
  for (int k = 1; k <= n; ++k) {
    const sim::Time from = now_of(s);
    const sim::Time to = start + sim::Time::picoseconds(phase.ps() * k / n);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    s.run_for(to - from);
    rep.slice_wall_s.push_back(seconds_since(t0));
    rep.slice_cpu_s.push_back(cpu_seconds() - cpu0);
    rep.slice_sim_ms.push_back((to - from).ms());
  }
}

// Builds the scenario (timed), runs both windows in slices, returns the
// scenario for inspection and its measurement-window results.
template <class S, class Cfg>
auto build_and_run(Cfg cfg, const Windows& w, Report& rep) {
  cfg.warmup = sim::Time::zero();
  cfg.measure = sim::Time::zero();
  const auto t0 = Clock::now();
  auto s = std::make_unique<S>(cfg);
  rep.setup_s.push_back(seconds_since(t0));

  const double total = static_cast<double>((w.warmup + w.measure).ps());
  const int warmup_slices = std::clamp(
      static_cast<int>(std::lround(kSlices * static_cast<double>(w.warmup.ps()) / total)), 1,
      kSlices - 1);
  run_slices(*s, w.warmup, warmup_slices, rep);
  s->run_warmup();
  run_slices(*s, w.measure, kSlices - warmup_slices, rep);
  auto r = s->run_measure();
  return std::make_pair(std::move(s), r);
}

// Repeats the (zero-window) construction until there are `n` set-up
// samples. run.py keeps each repetition's least sample; it passes a fixed
// count per workload, because a minimum over more samples reads lower.
template <class S, class Cfg>
void time_more_setups(Cfg cfg, int n, std::vector<double>& setup_s) {
  cfg.warmup = sim::Time::zero();
  cfg.measure = sim::Time::zero();
  while (static_cast<int>(setup_s.size()) < n) {
    const auto t0 = Clock::now();
    auto s = std::make_unique<S>(cfg);
    setup_s.push_back(seconds_since(t0));
  }
}

// Self time and scope count per tag suffix, summed across components.
void add_profile(const obs::SimProfiler& prof, double run_wall_ms, Report& rep) {
  struct Sum {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Sum> by_layer;
  for (const char* layer : {"nic", "iio", "memctrl", "cpu", "transport", "forward"}) {
    by_layer[layer];
  }
  std::int64_t tagged_ns = 0;
  for (const obs::SimProfiler::TagStats& t : prof.tags()) {
    const std::size_t slash = t.name.rfind('/');
    Sum& s = by_layer[slash == std::string::npos ? t.name : t.name.substr(slash + 1)];
    s.calls += t.scopes;
    s.self_ns += t.self_ns;
    tagged_ns += t.self_ns;
  }
  for (const auto& [layer, s] : by_layer) {
    rep.profile.emplace_back(layer + ".calls", num(s.calls));
    rep.profile.emplace_back(layer + ".self_ms", num(static_cast<double>(s.self_ns) * 1e-6));
  }
  rep.profile.emplace_back("untagged_self_ms",
                           num(run_wall_ms - static_cast<double>(tagged_ns) * 1e-6));
  std::uint64_t pending_peak = 0;
  for (const auto& d : prof.depth_timeline()) pending_peak = std::max(pending_peak, d.pending);
  rep.profile.emplace_back("pending_peak", num(pending_peak));
}

exp::ScenarioConfig star_config(std::uint64_t seed, bool trace) {
  // hostcc_sim --degree 3 --hostcc --signals --rpc 128 --rpc 32768: the
  // calibrated paper testbed behind fig02/10/19 (250 + 150 ms windows).
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 3.0;
  cfg.hostcc_enabled = true;
  cfg.record_signals = true;
  cfg.rpc_sizes = {128, 32768};
  cfg.host.seed = seed;
  cfg.profile = trace;
  return cfg;
}

Report run_star(const exp::ScenarioConfig& cfg, const Windows& w, int setups) {
  Report rep;
  auto [s, r] = build_and_run<exp::Scenario>(cfg, w, rep);
  if (cfg.profile) add_profile(s->profiler(), rep.wall_s() * 1e3, rep);

  std::uint64_t packets = s->receiver().nic().stats().arrived_pkts;
  for (int i = 0; i < cfg.senders; ++i) packets += s->sender(i).nic().stats().arrived_pkts;
  Fields& f = rep.results;
  f.emplace_back("events", num(s->simulator().events_executed()));
  f.emplace_back("packets", num(packets));
  f.emplace_back("net_tput_gbps", num(r.net_tput_gbps));
  f.emplace_back("host_drop_rate_pct", num(r.host_drop_rate_pct));
  f.emplace_back("fabric_drop_rate_pct", num(r.fabric_drop_rate_pct));
  f.emplace_back("mapp_mem_util", num(r.mapp_mem_util));
  f.emplace_back("net_mem_util", num(r.net_mem_util));
  f.emplace_back("avg_iio_occupancy", num(r.avg_iio_occupancy));
  f.emplace_back("avg_pcie_gbps", num(r.avg_pcie_gbps));
  f.emplace_back("ecn_marks", num(r.ecn_marked_pkts));
  f.emplace_back("timeouts", num(r.sender_timeouts));
  f.emplace_back("fast_retx", num(r.sender_fast_retransmits));
  f.emplace_back("fabric_drops", num(r.switch_drops));
  f.emplace_back("fabric_marks", num(r.switch_marks));
  f.emplace_back("no_route_drops", num(r.switch_no_route_drops));
  f.emplace_back("invariant_violations", num(r.invariant_violations));
  for (std::size_t i = 0; i < r.rpc_latency.size(); ++i) {
    const std::string p = "rpc" + std::to_string(cfg.rpc_sizes[i]) + "_";
    f.emplace_back(p + "count", num(r.rpc_latency[i].count));
    f.emplace_back(p + "p50_us", num(r.rpc_latency[i].p50.us()));
    f.emplace_back(p + "p99_us", num(r.rpc_latency[i].p99.us()));
  }

  s.reset();
  if (!cfg.profile) time_more_setups<exp::Scenario>(cfg, setups, rep.setup_s);
  return rep;
}

Report run_fabric(const exp::FabricScenarioConfig& cfg, const Windows& w, int setups) {
  Report rep;
  auto [s, r] = build_and_run<exp::FabricScenario>(cfg, w, rep);

  double run_wall_ms = rep.wall_s() * 1e3;
  if (sim::ShardedSimulator* e = s->engine()) {
    // sim/sharded_sim.h documents that cells are dealt round-robin to the
    // workers, so worker w's busy time is the wall of cells w, w + workers,
    // ... This is the one place outside the engine that relies on that
    // assignment; an engine that rebalances cells must report per-worker
    // busy time itself.
    std::vector<double> busy(static_cast<std::size_t>(e->workers()), 0.0);
    double cell_sum = 0.0;
    for (int c = 0; c < e->cell_count(); ++c) {
      busy[static_cast<std::size_t>(c % e->workers())] += e->cell_wall_ms(c);
      cell_sum += e->cell_wall_ms(c);
    }
    rep.engine.emplace_back("workers", num(e->workers()));
    rep.engine.emplace_back("cell_wall_ms_sum", num(cell_sum));
    rep.engine.emplace_back("worker_busy_max_ms", num(*std::max_element(busy.begin(), busy.end())));
    rep.engine.emplace_back("worker_busy_mean_ms", num(cell_sum / e->workers()));
    run_wall_ms = cell_sum;
  }
  if (cfg.profile) add_profile(s->profiler(), run_wall_ms, rep);

  std::uint64_t packets = 0;
  for (int i = 0; i < s->host_count(); ++i) {
    packets += s->hybrid() ? s->slot(i).arrived_pkts() : s->host(i).nic().stats().arrived_pkts;
  }
  Fields& f = rep.results;
  f.emplace_back("events", num(s->events_executed()));
  f.emplace_back("packets", num(packets));
  if (sim::ShardedSimulator* e = s->engine()) {
    f.emplace_back("cells", num(e->cell_count()));
    f.emplace_back("epochs", num(e->epochs_entered()));
  }
  f.emplace_back("net_tput_gbps", num(r.net_tput_gbps));
  f.emplace_back("host_drop_rate_pct", num(r.host_drop_rate_pct));
  f.emplace_back("fabric_drop_rate_pct", num(r.fabric_drop_rate_pct));
  f.emplace_back("delivered_pkts", num(r.delivered_pkts));
  f.emplace_back("fabric_drops", num(r.fabric_drops));
  f.emplace_back("fabric_marks", num(r.fabric_marks));
  f.emplace_back("no_route_drops", num(r.fabric_no_route_drops));
  f.emplace_back("timeouts", num(r.sender_timeouts));
  f.emplace_back("fast_retx", num(r.sender_fast_retransmits));
  f.emplace_back("invariant_violations", num(r.invariant_violations));
  f.emplace_back("flow_episodes", num(r.flow_episodes));
  f.emplace_back("fct_p50_us", num(r.fct_p50_us));
  f.emplace_back("fct_p99_us", num(r.fct_p99_us));
  f.emplace_back("flows_started", num(r.flows_started));
  f.emplace_back("flows_completed", num(r.flows_completed));
  f.emplace_back("flows_skipped", num(r.flows_skipped));
  f.emplace_back("conn_pool_opens", num(r.conn_pool_opens));
  f.emplace_back("conn_pool_reuses", num(r.conn_pool_reuses));
  f.emplace_back("orphan_packets", num(r.orphan_packets));
  f.emplace_back("hosts_full", num(r.hosts_full));
  f.emplace_back("hosts_analytic", num(r.hosts_analytic));
  f.emplace_back("promotions", num(r.promotions));
  f.emplace_back("demotions", num(r.demotions));

  s.reset();
  if (!cfg.profile) time_more_setups<exp::FabricScenario>(cfg, setups, rep.setup_s);
  return rep;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --workloads DIR [--setups K]\n"
               "          [--trace] [--smoke]\n"
               "  NAME: star_hostcc, or the stem of a DIR/<NAME>.conf scenario file\n"
               "  K: set-up samples of an untraced repetition, 1 to 1000 (default 1)\n",
               argv0);
  std::exit(2);
}

int run(int argc, char** argv) {
  std::string workload, dir;
  std::uint64_t seed = 0;
  int setups = 1;
  bool seed_set = false, setups_ok = true, trace = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--workloads" && has_value) {
      dir = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      seed_set = *end == '\0' && end != argv[i];
    } else if (a == "--setups" && has_value) {
      char* end = nullptr;
      const long k = std::strtol(argv[++i], &end, 10);
      setups_ok = *end == '\0' && end != argv[i] && k >= 1 && k <= 1000;
      setups = static_cast<int>(k);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      usage(argv[0]);
    }
  }
  if (workload.empty() || dir.empty() || !seed_set || !setups_ok) usage(argv[0]);

  const auto windows = [smoke](const auto& cfg) {
    return smoke ? Windows{sim::Time::milliseconds(1), sim::Time::milliseconds(1)}
                 : Windows{cfg.warmup, cfg.measure};
  };
  Report rep;
  if (workload == "star_hostcc") {
    const exp::ScenarioConfig cfg = star_config(seed, trace);
    rep = run_star(cfg, windows(cfg), setups);
  } else {
    exp::FabricScenarioConfig cfg = exp::load_scenario_file(dir + "/" + workload + ".conf");
    cfg.host.seed = seed;
    cfg.workload.seed = seed;
    cfg.profile = trace;
    rep = run_fabric(cfg, windows(cfg), setups);
  }

  std::printf("{\n");
  std::printf("  \"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, \"smoke\": %s,\n",
              workload.c_str(), seed, trace ? "true" : "false", smoke ? "true" : "false");
  std::printf("  \"build_type\": \"%s\", \"compiler\": \"%s\",\n", HOSTCC_BENCH_BUILD_TYPE,
              HOSTCC_BENCH_COMPILER);
  std::printf("  \"setup_s\": %s,\n", array(rep.setup_s).c_str());
  std::printf("  \"peak_rss_kib\": %" PRIu64 ",\n", peak_rss_kib());
  print_object("slices", {{"sim_ms", array(rep.slice_sim_ms)},
                          {"wall_s", array(rep.slice_wall_s)},
                          {"cpu_s", array(rep.slice_cpu_s)}},
               false);
  print_object("engine", rep.engine, false);
  print_object("profile", rep.profile, false);
  print_object("results", rep.results, true);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostcc_bench: %s\n", e.what());
    return 1;
  }
}

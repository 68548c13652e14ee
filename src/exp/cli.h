// Shared command-line handling for the figure/bench binaries.
//
// Every bench accepts --quick (shorter warmup/measure windows, for CI
// smoke runs). Everything else is declared per binary in `extra_flags`,
// so a binary takes exactly the flags it reads; the extras BenchOpts
// knows come back in its fields:
//   --jobs N    run the sweep's configurations on N threads (0 = all
//               hardware threads) via sim::SweepRunner; results are
//               byte-identical for every N
//   --shards N  run each fabric configuration on N >= 1 worker threads
//               (exp::FabricScenarioConfig::shards, default 1); results
//               are byte-identical for every N. A binary taking both
//               should pass opts.shards to SweepRunner's shards_per_task
//               so jobs x shards stays within the hardware concurrency.
//   --json, --csv, --timeseries, --ewma-sweep, --telemetry DIR
// Anything else is an error: every unknown flag and unparseable value in
// the invocation is collected and reported in ONE std::invalid_argument
// that also lists the full valid set (the same aggregated style as
// FaultPlan, the scenario files and hostcc_sim), so a typo'd sweep
// invocation fails loudly instead of silently running the default
// configuration.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario_file.h"
#include "sim/sweep_runner.h"

namespace hostcc::exp {

struct BenchOpts {
  bool quick = false;
  int jobs = 1;
  int shards = 1;  // fabric worker threads (FabricScenarioConfig::shards)
  // Extras, set only for a binary that declares them.
  bool json = false;          // --json: machine-readable output
  bool csv = false;           // --csv: raw time-series rows
  bool timeseries = false;    // --timeseries (fig18)
  bool ewma_sweep = false;    // --ewma-sweep (fig18)
  std::string telemetry_dir;  // --telemetry DIR (fig13x)
};

// Parses --quick; `extra_flags` names the binary-specific ones
// (matched against the flag name, so "--foo", "--foo=v", and "--foo v" all
// pass). Throws one std::invalid_argument naming every unknown flag and
// unparseable value at once.
inline BenchOpts parse_bench_opts(int argc, char** argv,
                                  std::initializer_list<const char*> extra_flags = {}) {
  BenchOpts opts;
  std::vector<std::string> unknown;
  std::vector<std::string> bad;
  const auto is_extra = [&](const std::string& name) {
    for (const char* e : extra_flags) {
      if (name == e) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    // "--flag=v" or "--flag v": a following token that is not itself a
    // flag belongs to this one.
    const auto take_value = [&]() -> const std::string& {
      if (eq == std::string::npos && i + 1 < argc && argv[i + 1][0] != '-') {
        val = argv[++i];
      }
      return val;
    };
    // An absent value reads as 0; a present one must be a whole integer.
    const auto take_int = [&](int& out) {
      long long n = 0;
      if (!take_value().empty() && !parse_i64(val, n)) {
        bad.push_back(name + ": expected an integer, got '" + val + "'");
      }
      out = static_cast<int>(n);
    };
    if (name == "--quick") {
      opts.quick = true;
    } else if (!is_extra(name)) {
      unknown.push_back(arg);
    } else if (name == "--jobs") {
      take_int(opts.jobs);
    } else if (name == "--shards") {
      take_int(opts.shards);
    } else if (name == "--json") {
      opts.json = true;
    } else if (name == "--csv") {
      opts.csv = true;
    } else if (name == "--timeseries") {
      opts.timeseries = true;
    } else if (name == "--ewma-sweep") {
      opts.ewma_sweep = true;
    } else if (name == "--telemetry") {
      opts.telemetry_dir = take_value();
      if (opts.telemetry_dir.empty()) bad.push_back("--telemetry: missing directory");
    } else {
      take_value();  // a declared extra BenchOpts does not know
    }
  }
  if (!unknown.empty() || !bad.empty()) {
    std::string msg;
    if (!unknown.empty()) msg = unknown.size() == 1 ? "unknown flag:" : "unknown flags:";
    for (const std::string& u : unknown) msg += "\n  - " + u;
    if (!bad.empty()) msg += msg.empty() ? "invalid values:" : "\ninvalid values:";
    for (const std::string& b : bad) msg += "\n  - " + b;
    msg += "\nvalid flags: --quick";
    for (const std::string e : extra_flags) {
      msg += ", " + e;
      if (e == "--jobs" || e == "--shards") msg += " N";
    }
    throw std::invalid_argument(msg);
  }
  if (opts.shards < 1) {
    throw std::invalid_argument("--shards must be >= 1 worker thread (got " +
                                std::to_string(opts.shards) + ")");
  }
  return opts;
}

// The figure mains' one-liner: parse, or print the aggregated error and
// exit 2 (the same exit code hostcc_sim uses for bad usage).
inline BenchOpts parse_bench_opts_or_die(int argc, char** argv,
                                         std::initializer_list<const char*> extra_flags = {}) {
  try {
    return parse_bench_opts(argc, argv, extra_flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

}  // namespace hostcc::exp

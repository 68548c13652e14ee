// Scenario config files (--scenario FILE): a small INI-style grammar that
// builds a FabricScenarioConfig, so a whole experiment — topology, traffic
// pattern or workload engine, hostCC, faults — lives in one reviewable,
// committable text file instead of a shell line of flags.
//
// Grammar (see docs/WORKLOADS.md for the full key tables):
//
//   # comment (also after values)
//   [fabric]
//   topology = leaf-spine:2x8
//   pattern  = all-to-all
//   hostcc   = true
//   fault    = link_down@2000+500:leaf0-spine0     # repeatable
//
//   [workload]              # presence alone enables the workload engine
//   arrival  = poisson
//   load     = 0.6          # fraction of host bisection bandwidth
//   size_cdf = websearch
//
//   [rpc]                   # presence alone enables the RPC trees
//   fanout   = 4
//
// Errors are aggregated FaultPlan-style: every unknown section, unknown
// key, and unparseable value in the file is collected (with its line
// number) and thrown as one std::invalid_argument, so a broken file is
// fixable from a single run.
//
// The parser only checks the file's own syntax; semantic validation (load
// ranges, topology graph checks, ...) happens in FabricScenario::build(),
// which aggregates in the same style.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "exp/fabric_scenario.h"

namespace hostcc::exp {

// Parses scenario-file text into a config. `origin` names the source in
// error messages (the file path, or "<inline>" in tests). Throws one
// aggregated std::invalid_argument listing every problem.
FabricScenarioConfig parse_scenario_text(const std::string& text,
                                         const std::string& origin = "<inline>");

// Reads `path` and parses it; unreadable files throw std::invalid_argument.
FabricScenarioConfig load_scenario_file(const std::string& path);

// Applies one `[fabric]` key = value to `cfg`, exactly as a line of a
// scenario file does (hostcc_sim applies its fabric flags through this).
// Returns the problem — "fabric.<key>: expected ..., got '<value>'", a
// fault-spec error, or an unknown-key message listing the valid keys — or
// nullopt when the key was applied.
std::optional<std::string> set_fabric_key(FabricScenarioConfig& cfg, const std::string& key,
                                          const std::string& val);

// The strict scalar parsers behind every key: the whole token must be
// consumed, so "0.6x" or "12 3" fail instead of silently truncating.
bool parse_double(const std::string& s, double& out);
bool parse_i64(const std::string& s, long long& out);
bool parse_u64(const std::string& s, std::uint64_t& out);
bool parse_bool(const std::string& s, bool& out);  // true|on|1 / false|off|0

}  // namespace hostcc::exp

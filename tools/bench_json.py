#!/usr/bin/env python3
"""Snapshot bench_engine throughput to JSON and gate against a baseline.

Two modes, composable:

  Snapshot (default): run bench_engine with --benchmark_format=json and
  write a compact per-benchmark summary to results/perf/BENCH_<n>.json
  (auto-numbered) or to --out. Each entry records items/sec (falling back
  to iterations/sec for benchmarks that don't call SetItemsProcessed) and
  real time per iteration. The context records the machine, the build
  type and compiler of the build directory holding the binary (from its
  CMakeCache.txt), and the git sha. The sequence of BENCH_<n>.json files
  is the repo's performance trajectory.

  Gate (--check BASELINE.json): additionally compare the fresh run
  against a committed baseline and exit non-zero if any benchmark's
  throughput fell more than --tolerance (default 25%) below it. Used by
  the CI bench-regression job.

Examples:
  tools/bench_json.py --bench build/bench/bench_engine
  tools/bench_json.py --bench build/bench/bench_engine \
      --out results/perf/BASELINE.json            # refresh the baseline
  tools/bench_json.py --bench build/bench/bench_engine \
      --check results/perf/BASELINE.json --out build/BENCH_ci.json
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The engine's fast hot-path microbenchmarks plus the end-to-end scenario
# packet-throughput headline, plus the two observability-overhead benches
# (tracer, self-profiler) whose acceptance criteria are the in-process
# RATIO_GATES below.
DEFAULT_FILTER = (
    "BM_EventQueuePushPop$|BM_EventCancellation|BM_EventQueuePushPopRefCapture|"
    "BM_SimulatorTimerChurn|BM_EwmaAdd|BM_HistogramRecord|BM_MemControllerQuantum|"
    "BM_MemControllerIdleQuantum|"
    "BM_ScenarioPacketsPerSecond|BM_FabricHostScaling|BM_FabricShardScaling|"
    "BM_HybridFidelityScaling|BM_HostDatapathTracer|BM_ScenarioProfilerOverhead|"
    "BM_WorkloadChurn"
)

# In-process ratio gates: (probe, reference, floor). These acceptance
# criteria are *relative* — "attached but disabled must cost <= X% vs not
# attached" — so they compare two benchmarks from the same run on the same
# machine, where an absolute cross-machine items/sec floor would be
# meaningless. Checked in --check mode whenever both names are present in
# the current run (medians when --repetitions > 1).
RATIO_GATES = [
    # Self-profiler attached-but-disabled vs detached: <= 1% overhead.
    ("BM_ScenarioProfilerOverhead/1", "BM_ScenarioProfilerOverhead/0", 0.99),
    # Packet tracer attached-but-disabled vs no tracer: <= 2% overhead.
    ("BM_HostDatapathTracer/1", "BM_HostDatapathTracer/0", 0.98),
    # Hybrid fidelity at 64 hosts vs all-full at 64 hosts: the flow-level
    # tier must deliver >= 3x the packet throughput (measured 4.3x, both
    # on the sharded engine at one worker).
    ("BM_HybridFidelityScaling/64/1", "BM_HybridFidelityScaling/64/0", 3.0),
    # An idle host's memory-controller quantum vs a loaded 4-source one:
    # idle quanta skip the poll and the water-fill, and their EWMA decays
    # stop at 0 instead of crawling through subnormals, so they must run
    # >= 3x as many per second.
    ("BM_MemControllerIdleQuantum", "BM_MemControllerQuantum", 3.0),
]


def build_context(bench):
    """Build type and compiler of the CMake build directory holding `bench`."""
    build_dir = next((d for d in bench.resolve().parents if (d / "CMakeCache.txt").is_file()), None)
    if build_dir is None:
        return {"build_type": None, "compiler": None}
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text(errors="replace").splitlines():
        if (m := re.fullmatch(r"(\w[^:]*):[A-Z]+=(.*)", line)):
            cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER")
    # The compiler's id and version are recorded next to the cache, in
    # CMakeFiles/<cmake version>/CMakeCXXCompiler.cmake.
    for f in sorted(build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = f.read_text(errors="replace")
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)} ({compiler})"
            break
    # CMakeLists.txt builds RelWithDebInfo when no build type is given.
    return {"build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo", "compiler": compiler}


def git_sha():
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_bench(bench, bench_filter, repetitions):
    cmd = [str(bench), f"--benchmark_filter={bench_filter}", "--benchmark_format=json"]
    if repetitions > 1:
        cmd += [
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
        ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {bench} exited with {proc.returncode}")
    doc = json.loads(proc.stdout)

    benchmarks = {}
    for b in doc.get("benchmarks", []):
        if repetitions > 1:
            if b.get("aggregate_name") != "median":
                continue
            name = b["name"].removesuffix("_median")
        else:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"]
        real_time_ns = b["real_time"]  # engine benches report in ns
        ips = b.get("items_per_second")
        if ips is None and real_time_ns > 0:
            ips = 1e9 / real_time_ns  # iterations/sec fallback
        benchmarks[name] = {
            "items_per_second": ips,
            "real_time_ns": real_time_ns,
        }
    if not benchmarks:
        raise SystemExit(f"error: filter {bench_filter!r} matched no benchmarks")

    ctx = doc.get("context", {})
    return {
        "context": {
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "library_build_type": ctx.get("library_build_type"),
            **build_context(bench),
            "git_sha": git_sha(),
        },
        "benchmarks": benchmarks,
    }


def next_snapshot_path(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    taken = [
        int(m.group(1))
        for p in out_dir.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))
    ]
    return out_dir / f"BENCH_{max(taken) + 1 if taken else 0}.json"


def check_against(baseline_path, current, tolerance):
    baseline = json.loads(Path(baseline_path).read_text())["benchmarks"]
    floor = 1.0 - tolerance
    failures = []
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, base in sorted(baseline.items()):
        cur = current["benchmarks"].get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<40} {base['items_per_second']:>12.3e} {'MISSING':>12}")
            continue
        ratio = cur["items_per_second"] / base["items_per_second"]
        flag = "" if ratio >= floor else "  << REGRESSION"
        print(
            f"{name:<40} {base['items_per_second']:>12.3e} "
            f"{cur['items_per_second']:>12.3e} {ratio:>6.2f}x{flag}"
        )
        if ratio < floor:
            failures.append(f"{name}: {ratio:.2f}x of baseline (floor {floor:.2f}x)")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed beyond {tolerance:.0%}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nOK: all {len(baseline)} benchmarks within {tolerance:.0%} of baseline")
    return 0


def check_ratio_gates(current):
    """Within-run relative overhead gates (see RATIO_GATES). Returns 0/1."""
    benchmarks = current["benchmarks"]
    failures = []
    checked = 0
    for probe, ref, floor in RATIO_GATES:
        p, r = benchmarks.get(probe), benchmarks.get(ref)
        if p is None or r is None:
            continue  # pair not covered by this run's filter
        if checked == 0:
            print(f"\n{'ratio gate':<44} {'ratio':>7} {'floor':>7}")
        checked += 1
        ratio = p["items_per_second"] / r["items_per_second"]
        flag = "" if ratio >= floor else "  << OVERHEAD"
        print(f"{probe + ' / ' + ref:<44} {ratio:>6.3f}x {floor:>6.2f}x{flag}")
        if ratio < floor:
            failures.append(
                f"{probe}: {ratio:.3f}x of {ref} (floor {floor:.2f}x — "
                f"disabled-path overhead exceeds budget)"
            )
    if failures:
        print(f"\nFAIL: {len(failures)} ratio gate(s) violated:")
        for f in failures:
            print(f"  - {f}")
        return 1
    if checked:
        print(f"OK: all {checked} ratio gates hold")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--bench",
        default="build/bench/bench_engine",
        help="path to the bench_engine binary (default: %(default)s)",
    )
    ap.add_argument(
        "--filter",
        default=DEFAULT_FILTER,
        help="--benchmark_filter regex (default: engine hot-path set)",
    )
    ap.add_argument(
        "--repetitions",
        type=int,
        default=3,
        help="benchmark repetitions; the median is recorded (default: %(default)s)",
    )
    ap.add_argument(
        "--out",
        help="output JSON path (default: auto-numbered BENCH_<n>.json in --out-dir)",
    )
    ap.add_argument(
        "--out-dir",
        default="results/perf",
        help="directory for auto-numbered snapshots (default: %(default)s)",
    )
    ap.add_argument("--check", help="baseline JSON to gate against")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="max allowed fractional throughput drop vs baseline (default: %(default)s)",
    )
    args = ap.parse_args()

    bench = Path(args.bench)
    if not bench.exists():
        raise SystemExit(f"error: bench binary not found: {bench} (build it first)")

    current = run_bench(bench, args.filter, args.repetitions)

    out = Path(args.out) if args.out else next_snapshot_path(Path(args.out_dir))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    if args.check:
        rc_abs = check_against(args.check, current, args.tolerance)
        rc_ratio = check_ratio_gates(current)
        return 1 if (rc_abs or rc_ratio) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

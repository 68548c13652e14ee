#!/usr/bin/env python3
"""hostcc-sim benchmark runner.

Builds perfbench/ (the simulator libraries plus hostcc_bench) in Release
under .bench_build, runs one workload as a series of repetitions -- one
hostcc_bench process each -- checks every repetition's outputs, and prints
every metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --suite --seeds 1-10 --seconds S --out FILE
  python3 perfbench/run.py --compare BASE.json NEW.json
  python3 perfbench/run.py --smoke

Workloads, metric names, units and regression bounds come from
BENCHMARK.json at the repository root; perfbench/README.md explains them.
Run from the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "hostcc_bench")

MIN_REPS = 3            # fewest repetitions behind a reported value
REP_TIMEOUT_S = 90      # one hostcc_bench process
SMOKE_REPS = 2          # untraced repetitions per workload in --smoke
SETUP_FLOOR_S = 0.005   # --compare: set-up may grow this much whatever its bound

# Per workload: the nominal wall time of one repetition on the machine
# described in README.md, which turns --seconds into a repetition count,
# and the set-up samples each repetition takes (about 0.3 s of set-up at
# most). Both are constants: a minimum over more samples reads lower, so
# a parent and a change must take the same number whatever their speed.
REP_S = {"star_hostcc": 3.0, "fattree_incast": 2.5, "hybrid_incast640": 2.0,
         "websearch_churn": 3.6}
SETUPS = {"star_hostcc": 200, "fattree_incast": 50, "hybrid_incast640": 5,
          "websearch_churn": 100}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- build


def build():
    """Configures (once) and builds the Release benchmark; exits on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


# ---------------------------------------------------------- repetitions


def run_rep(workload, seed, traced, smoke):
    """Runs one hostcc_bench process; returns (output dict or None, error)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--workloads", WORKLOAD_DIR, "--setups", str(SETUPS[workload])]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.pop("HOSTCC_DRAIN_MODE", None)  # measure the default datapath
    try:
        # On timeout subprocess.run kills the child and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timeout after %d s" % REP_TIMEOUT_S
    if proc.returncode != 0:
        return None, "exit code %d" % proc.returncode
    try:
        return json.loads(proc.stdout), None
    except ValueError as e:
        return None, "unparseable output: %s" % e


def digest(results):
    """sim_digest: hash of the deterministic results (no wall-clock fields)."""
    blob = json.dumps(results, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def invariant_failures(r):
    """What every run must show, whatever its windows."""
    bad = []
    if r["invariant_violations"] != 0:
        bad.append("invariant_violations = %d" % r["invariant_violations"])
    if r["no_route_drops"] != 0:
        bad.append("no_route_drops = %d" % r["no_route_drops"])
    return bad


def anchor_failures(workload, r):
    """Workload anchors: what a full-window run of each workload must show."""
    bad = []
    if workload == "star_hostcc":
        if not 59.5 <= r["net_tput_gbps"] <= 80.5:
            bad.append("throughput %.2f Gbps outside 70 +- 15%%" % r["net_tput_gbps"])
        if r["host_drop_rate_pct"] >= 0.01:
            bad.append("host drops %.4f%% >= 0.01%%" % r["host_drop_rate_pct"])
    elif workload == "fattree_incast":
        if r["flow_episodes"] < 1000:
            bad.append("%d FCT episodes < 1000" % r["flow_episodes"])
    elif workload == "hybrid_incast640":
        if r["hosts_analytic"] < 600:
            bad.append("%d analytic hosts < 600" % r["hosts_analytic"])
    elif workload == "websearch_churn":
        if r["flows_completed"] < 1000:
            bad.append("%d flows completed < 1000" % r["flows_completed"])
        # Flows still in flight when the window closes are the only ones
        # left open; a wedged transport leaves many more.
        if r["flows_completed"] < 0.95 * r["flows_started"]:
            bad.append("%d of %d flows completed < 95%%"
                       % (r["flows_completed"], r["flows_started"]))
    return bad


class Rep:
    """One repetition: its raw output, derived numbers, and check result."""

    def __init__(self, workload, seed, traced, smoke):
        self.traced = traced
        out, err = run_rep(workload, seed, traced, smoke)
        self.out = out
        self.errors = [err] if err else []
        if out is None:
            return
        self.errors += invariant_failures(out["results"])
        if not smoke:
            if out["build_type"] != "Release":
                self.errors.append("refusing to report a %s build" % out["build_type"])
            self.errors += anchor_failures(workload, out["results"])
        sl = out["slices"]
        self.results = out["results"]
        self.digest = digest(out["results"])
        self.slice_wall_s = sl["wall_s"]
        self.slice_cpu_s = sl["cpu_s"]
        self.wall_s = sum(sl["wall_s"])
        self.sim_ms = sum(sl["sim_ms"])
        self.cpu_s = sum(sl["cpu_s"])
        self.setup_s = out["setup_s"]
        self.rss_mb = out["peak_rss_kib"] / 1024.0
        if not self.rss_mb:
            self.errors.append("no peak RSS (/proc/self/status unreadable)")

    @property
    def ok(self):
        return not self.errors


def check_digests(reps):
    """Every repetition of one kind must produce the same sim_digest."""
    groups = {}
    for r in reps:
        if r.out is not None:
            groups.setdefault(r.traced, []).append(r)
    for group in groups.values():
        ref = statistics.mode([r.digest for r in group])
        for r in group:
            if r.digest != ref:
                r.errors.append("sim_digest %s differs from the set's %s" % (r.digest, ref))


# -------------------------------------------------------------- metrics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def slice_min_sum(reps, attr):
    """The run's cost with interference removed: the least time any
    repetition took for each slice, summed over slices. Every repetition of
    one workload and seed executes exactly the same events slice by slice,
    so their differences are all interference from the machine, which only
    ever adds time."""
    per_rep = [getattr(r, attr) for r in reps]
    return sum(min(s) for s in zip(*per_rep))


# End-to-end estimators, each from the untraced repetitions of one
# invocation. Set-up is deterministic work too, so each repetition's least
# set-up time is its interference-free sample.
END_TO_END = {
    "sim_ms_per_s": lambda reps: reps[0].sim_ms / slice_min_sum(reps, "slice_wall_s"),
    "setup_s": lambda reps: median([min(r.setup_s) for r in reps]),
    "cpu_s_per_sim_ms": lambda reps: slice_min_sum(reps, "slice_cpu_s") / reps[0].sim_ms,
    "peak_rss_mb": lambda reps: median([r.rss_mb for r in reps]),
}


def end_to_end(reps):
    """{name: (value, samples)}. The samples are the estimator's own values
    with each repetition left out in turn: their quartiles show how much
    the value rests on any one repetition."""
    out = {}
    for name, estimate in END_TO_END.items():
        loo = [estimate(reps[:i] + reps[i + 1:]) for i in range(len(reps))]
        out[name] = (estimate(reps), loo)
    return out


def per_layer(untraced, traced):
    """Per-layer values, {name: (value, samples)}: engine and result
    counters from untraced reps, profiler tags from traced ones, and the
    tracing overhead between the two."""
    vals = {}

    def add(name, xs):
        vals[name] = (median(xs), xs)

    for key, layer in (("host.nic", "nic"), ("host.iio", "iio"), ("host.memctrl", "memctrl"),
                       ("host.cpu", "cpu"), ("transport", "transport"),
                       ("fabric.forward", "forward")):
        calls = [r.out["profile"][layer + ".calls"] for r in traced]
        self_ms = [r.out["profile"][layer + ".self_ms"] for r in traced]
        add(key + ".calls", calls)
        add(key + ".self_ms", self_ms)
        add(key + ".ns_per_call", [s * 1e6 / c if c else 0.0 for s, c in zip(self_ms, calls)])

    res = [r.results for r in untraced]
    add("transport.timeouts", [x["timeouts"] for x in res])
    add("transport.fast_retx", [x["fast_retx"] for x in res])
    add("fabric.drops", [x["fabric_drops"] for x in res])
    add("fabric.marks", [x["fabric_marks"] for x in res])

    busy_max, busy_mean, barrier = [], [], []
    for r in untraced:
        e = r.out["engine"]
        wall_ms = r.wall_s * 1e3
        if e:
            busy_max.append(e["worker_busy_max_ms"])
            busy_mean.append(e["worker_busy_mean_ms"])
            barrier.append(e["workers"] * wall_ms - e["cell_wall_ms_sum"])
        else:  # one plain event loop: busy for the whole run, never waiting
            busy_max.append(wall_ms)
            busy_mean.append(wall_ms)
            barrier.append(0.0)
    add("sim.epochs", [x.get("epochs", 0) for x in res])
    add("sim.worker_busy_max_ms", busy_max)
    add("sim.worker_busy_mean_ms", busy_mean)
    add("sim.imbalance", [m / a if a else 0.0 for m, a in zip(busy_max, busy_mean)])
    add("sim.barrier_ms", barrier)
    add("sim.events", [x["events"] for x in res])
    add("sim.ns_per_event",
        [slice_min_sum(untraced, "slice_wall_s") * 1e9 / res[0]["events"]])
    add("sim.events_per_pkt", [x["events"] / x["packets"] if x["packets"] else 0.0 for x in res])
    add("sim.cpu_cores", [r.cpu_s / r.wall_s for r in untraced])
    add("sim.pending_peak", [r.out["profile"]["pending_peak"] for r in traced])
    add("sim.untagged_self_ms", [r.out["profile"]["untagged_self_ms"] for r in traced])

    add("exp.fidelity.promotions", [x.get("promotions", 0) for x in res])
    add("exp.fidelity.demotions", [x.get("demotions", 0) for x in res])
    add("exp.fidelity.hosts_full", [x.get("hosts_full", 0) for x in res])

    started = [x.get("flows_started", 0) for x in res]
    completed = [x.get("flows_completed", 0) for x in res]
    opens = [x.get("conn_pool_opens", 0) for x in res]
    reuses = [x.get("conn_pool_reuses", 0) for x in res]
    add("workload.flows_started", started)
    add("workload.flows_completed", completed)
    add("workload.flows_skipped", [x.get("flows_skipped", 0) for x in res])
    add("workload.completion_ratio", [c / s if s else 0.0 for c, s in zip(completed, started)])
    add("workload.conn_reuse_ratio", [u / o if o else 0.0 for u, o in zip(reuses, opens)])
    add("workload.orphan_packets", [x.get("orphan_packets", 0) for x in res])

    add("hostcc.ecn_marks", [x.get("ecn_marks", 0) for x in res])
    add("obs.trace_overhead", [slice_min_sum(traced, "slice_wall_s") /
                               slice_min_sum(untraced, "slice_wall_s") - 1.0])
    return vals


def checks_table(workload, reps):
    """Simulated outcomes, printed as checks (not gated metrics)."""
    r = reps[0].results
    lines = ["  sim_digest            %s" % reps[0].digest,
             "  throughput            %.3f Gbps" % r["net_tput_gbps"],
             "  drops host/fabric     %.5f%% / %.5f%%" % (r["host_drop_rate_pct"],
                                                       r["fabric_drop_rate_pct"])]
    if r.get("flow_episodes"):
        lines.append("  FCT p50/p99           %.1f / %.1f us over %d episodes"
                     % (r["fct_p50_us"], r["fct_p99_us"], r["flow_episodes"]))
    for size in (128, 32768):
        p = "rpc%d_" % size
        if p + "count" in r:
            lines.append("  RPC %-5d p50/p99     %.1f / %.1f us over %d RPCs"
                         % (size, r[p + "p50_us"], r[p + "p99_us"], r[p + "count"]))
    if workload == "websearch_churn":
        lines.append("  flows started/done    %d / %d (%d orphan packets)"
                     % (r["flows_started"], r["flows_completed"], r["orphan_packets"]))
    if workload == "hybrid_incast640":
        lines.append("  hosts full/analytic   %d / %d" % (r["hosts_full"], r["hosts_analytic"]))
    lines.append("  invariant violations  %d" % r["invariant_violations"])
    return "\n".join(lines)


def summarize(values, spec_metrics):
    """{name: {"value", "unit", "q1", "q3", "n"}} for the names in spec."""
    out = {}
    for m in spec_metrics:
        value, xs = values[m["name"]]
        q1, q3 = quartiles(xs)
        out[m["name"]] = {"value": value, "unit": m["unit"], "q1": q1, "q3": q3, "n": len(xs)}
    return out


def print_metrics(title, summary):
    print(title)
    for name, s in summary.items():
        print("  %-28s %14.6g %-12s q1 %.6g  q3 %.6g  n %d"
              % (name, s["value"], s["unit"], s["q1"], s["q3"], s["n"]))


# ----------------------------------------------------------------- modes


def context(compiler=None, build_type=None):
    """Where and how a result was measured."""
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True).stdout.strip())
    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": sha, "git_dirty": dirty, "compiler": compiler,
            "build_type": build_type, "nproc": os.cpu_count(), "cpu_model": cpu,
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def rep_count(workload, seconds):
    return max(MIN_REPS, int(round(seconds / REP_S[workload])))


def measure(workload, seed, seconds, traced, spec):
    """Single-workload mode: a fixed number of repetitions of one
    workload, about `seconds` of them.

    One smoke-window repetition first pages in the binary and the set-up
    path; it is checked but not measured. Untraced mode then runs untraced
    repetitions; traced mode alternates untraced and traced ones.
    """
    warm = Rep(workload, seed, False, True)
    n = rep_count(workload, seconds)
    # Alternating from an untraced one, 2 * MIN_REPS - 1 repetitions hold
    # MIN_REPS untraced ones.
    kinds = [k % 2 == 1 for k in range(max(n, 2 * MIN_REPS - 1))] if traced else [False] * n
    reps = []
    for kind in kinds:
        reps.append(Rep(workload, seed, kind, False))
        if not reps[-1].ok:
            break
    check_digests(reps)

    good = [r for r in reps if r.ok]
    failed = [r for r in reps if not r.ok] + ([warm] if not warm.ok else [])
    for r in failed:
        log("%s seed %d: FAILED: %s" % (workload, seed, "; ".join(r.errors)))
    result = {"workload": workload, "seed": seed, "traced": traced,
              "context": context(good[0].out["compiler"] if good else None,
                                 good[0].out["build_type"] if good else None),
              "attempted": len(reps) + 1, "failed": len(failed),
              "digest": good[0].digest if good else None}
    if failed:
        result["metrics"] = {}
        return result
    untraced = [r for r in good if not r.traced]
    print("%s seed %d: %d untraced + %d traced repetitions" %
          (workload, seed, len(untraced), len(good) - len(untraced)))
    print(checks_table(workload, untraced))
    if traced:
        summary = summarize(per_layer(untraced, [r for r in good if r.traced]),
                            spec["per_layer"])
        print_metrics("metrics (value; quartiles and count of per-repetition samples):",
                      summary)
    else:
        summary = summarize(end_to_end(untraced), spec["end_to_end"])
        print_metrics("metrics (value; quartiles of the value with each repetition left "
                      "out; repetitions):", summary)
    result["metrics"] = summary
    return result


def result_line(result):
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    })


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def suite(seeds, seconds, out_path, spec):
    """Every workload at every seed, interleaved round-robin, one result set."""
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    ctx = None
    for seed in seeds:
        for w in names:
            r = measure(w, seed, seconds, False, spec)
            ctx = ctx or r["context"]
            runs[w].append({"seed": seed, "failed": r["failed"], "attempted": r["attempted"],
                            "digest": r["digest"],
                            "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(result_line(r), flush=True)
    doc = {"context": ctx, "seconds": seconds, "seeds": seeds, "runs": runs,
           "spread": spreads(runs, spec)}
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print_spreads(doc["spread"], spec)
    failed = sum(r["failed"] for w in names for r in runs[w])
    return 0 if failed == 0 else 1


def spreads(runs, spec):
    """Per workload and metric: median, quartiles, and IQR / median."""
    table = {}
    for w, rs in runs.items():
        table[w] = {}
        for m in spec["end_to_end"]:
            xs = [r["metrics"][m["name"]] for r in rs if m["name"] in r["metrics"]]
            if not xs:
                continue
            q1, q3 = quartiles(xs)
            med = median(xs)
            table[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(xs),
                                   "spread": (q3 - q1) / med if med else 0.0}
    return table


def print_spreads(table, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-18s %-18s %12s %9s %7s" % ("workload", "metric", "median", "spread", "bound"))
    for w, ms in table.items():
        for name, s in ms.items():
            print("%-18s %-18s %12.6g %8.2f%% %6.0f%%" % (w, name, s["median"],
                                                     100 * s["spread"], 100 * bounds[name]))


def compare(base_path, new_path, spec):
    """One row per workload and end-to-end metric, with a verdict.

    improved: the new median is better by more than the base's own IQR and
    the new run wins >= 9/10 of the seed-paired runs. regressed: the new
    median is worse than the base's by more than the allowance (the bound
    times the base median; for setup_s at least SETUP_FLOOR_S). unresolved:
    the base's IQR is wider than the allowance and the new runs do not all
    beat all base runs. Otherwise: within bound.
    """
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    print("base %s  new %s" % (base["context"].get("git_sha"), new["context"].get("git_sha")))
    print("%-18s %-18s %26s %26s %8s  %s" % ("workload", "metric", "base median [q1, q3]",
                                             "new median [q1, q3]", "change", "verdict"))
    regressed = False
    for w in base["runs"]:
        b_runs = {r["seed"]: r for r in base["runs"][w]}
        n_runs = {r["seed"]: r for r in new["runs"].get(w, [])}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            bx = [r["metrics"][name] for r in b_runs.values() if name in r["metrics"]]
            nx = [r["metrics"][name] for r in n_runs.values() if name in r["metrics"]]
            if not bx or not nx:
                continue
            bm, nm = median(bx), median(nx)
            bq, nq = quartiles(bx), quartiles(nx)
            change = (nm - bm) / bm
            gain = sign * (nm - bm)  # > 0 is better
            allowed = bound * bm
            if name == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            base_iqr = bq[1] - bq[0]
            pairs = [(b_runs[s]["metrics"][name], n_runs[s]["metrics"][name])
                     for s in b_runs if s in n_runs and name in n_runs[s]["metrics"]]
            wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
            all_better = min(sign * x for x in nx) > max(sign * x for x in bx)
            if gain > base_iqr and pairs and wins >= 0.9 * len(pairs):
                verdict = "improved"
            elif base_iqr > allowed and not all_better:
                verdict = "unresolved"
            elif -gain > allowed:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "within bound"
            print("%-18s %-18s %10.5g [%6.4g, %6.4g] %10.5g [%6.4g, %6.4g] %+7.1f%%  %s"
                  % (w, name, bm, bq[0], bq[1], nm, nq[0], nq[1], 100 * change, verdict))
        b_dig = {s: r["digest"] for s, r in b_runs.items()}
        n_dig = {s: r["digest"] for s, r in n_runs.items()}
        same = [s for s in b_dig if s in n_dig and b_dig[s] == n_dig[s]]
        print("%-18s sim_digest identical on %d of %d shared seeds"
              % (w, len(same), len([s for s in b_dig if s in n_dig])))
    return 1 if regressed else 0


def smoke(spec):
    """Every workload with 1 + 1 ms windows through the same checks (minus
    the full-window anchors and the Release rule); every metric name must
    come out. Exit 1 on any failure."""
    bad = []
    for w in [x["name"] for x in spec["workloads"]]:
        reps = [Rep(w, 1, False, True) for _ in range(SMOKE_REPS)] + [Rep(w, 1, True, True)]
        check_digests(reps)
        for r in reps:
            bad += ["%s: %s" % (w, e) for e in r.errors]
        if any(not r.ok for r in reps):
            continue
        untraced, traced = reps[:-1], reps[-1:]
        names = set(end_to_end(untraced)) | set(per_layer(untraced, traced))
        for m in spec["end_to_end"] + spec["per_layer"]:
            if m["name"] not in names:
                bad.append("%s: metric %s missing" % (w, m["name"]))
        print("%s: ok (%s)" % (w, reps[0].digest))
    for b in bad:
        log("smoke FAILED: " + b)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    build()
    if args.smoke:
        return smoke(spec)
    if args.suite:
        if not args.out or args.seconds is None:
            ap.error("--suite needs --seconds and --out")
        return suite(parse_seeds(args.seeds), args.seconds, args.out, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]] or args.seed is None \
            or args.seconds is None:
        ap.error("--workload (one of BENCHMARK.json's), --seed and --seconds are required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print("context: " + json.dumps(result["context"]))
    print(result_line(result), flush=True)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

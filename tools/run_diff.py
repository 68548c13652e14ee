#!/usr/bin/env python3
"""Diff two run-result JSONs and print a regression table.

Works on any JSON the repo's runners emit — `hostcc_sim --json`,
`hostcc_sim --topology ... --json`, and `fig13x_fabric --json` — by
flattening every numeric field to a dotted path (lists get [i] indices)
and comparing A vs B field by field. Wall-clock fields (*wall_ms*,
including the sharded runner's per-shard meta.shard_wall_ms) are
skipped: they are the one deliberately non-deterministic part of a run.
Sharded-execution policy fields (meta.shards/cells/lookahead_us/epochs)
are skipped too — --shards N is pure execution policy, so a legacy run
and a sharded run of the same config should diff clean on physics.

By default the comparison is **exact**: any numeric field that differs
at all is flagged and makes the exit status non-zero. That is the right
gate for determinism contracts (--shards 1 vs --shards N, repeat
runs), where the physics must match bit for bit. `--tolerance F`
switches to approximate mode — a field is flagged only when its
relative change exceeds F — for comparisons where small divergence is
the *expected* result being measured, e.g. a hybrid `--fidelity auto`
run against its all-full reference:

  build/tools/hostcc_sim --topology leaf-spine:8x8 --json > full.json
  build/tools/hostcc_sim --topology leaf-spine:8x8 --fidelity auto --json > auto.json
  tools/run_diff.py full.json auto.json --tolerance 0.10

The hybrid tier census (meta.fidelity/hosts_full/hosts_analytic/
promotions/demotions) is execution policy, not physics, and is skipped
like the shard meta fields.

Use --all to list unchanged fields too, and --filter REGEX to restrict
the comparison to matching paths (e.g. --filter 'fct|tput').
"""

import argparse
import json
import re
import sys
from pathlib import Path


def flatten(node, path=""):
    """Yields (dotted_path, value) for every numeric leaf under node."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from flatten(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            # Workload flow-size buckets carry their own key: align A and B
            # by log2(bytes), not list position, so a run that populates an
            # extra small-flow bucket shifts nothing else out of register.
            if isinstance(v, dict) and "log2_bytes" in v:
                yield from flatten(v, f"{path}[log2={v['log2_bytes']}]")
            else:
                yield from flatten(v, f"{path}[{i}]")
    elif isinstance(node, bool):
        return  # bool is an int subclass; config flags aren't metrics
    elif isinstance(node, (int, float)):
        yield path, float(node)


# Execution-policy metadata; not physics. Sharded runs add the engine
# partition fields (and the legacy/sharded schedulers count executed
# events differently for the same physics), hybrid-fidelity runs add
# the tier census — a full and an auto run of the same config should
# diff only on physics.
SHARD_META_KEYS = {
    "meta.shards",
    "meta.cells",
    "meta.lookahead_us",
    "meta.epochs",
    "meta.events_executed",
    "meta.hosts_full",
    "meta.hosts_analytic",
    "meta.promotions",
    "meta.demotions",
}


def load_fields(path, pattern):
    doc = json.loads(Path(path).read_text())
    fields = {}
    for key, value in flatten(doc):
        if "wall_ms" in key or key in SHARD_META_KEYS:
            continue
        if pattern and not pattern.search(key):
            continue
        fields[key] = value
    return fields


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline run JSON")
    ap.add_argument("b", help="candidate run JSON")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="max allowed fractional change before a field is flagged; "
        "the default 0 demands an exact match (determinism gates), "
        "positive values enable approximate A/B comparison, e.g. "
        "hybrid --fidelity auto vs its all-full reference "
        "(default: %(default)s)",
    )
    ap.add_argument(
        "--filter", default=None, help="only compare paths matching this regex"
    )
    ap.add_argument(
        "--all", action="store_true", help="also print unchanged fields"
    )
    args = ap.parse_args()

    pattern = re.compile(args.filter) if args.filter else None
    fa = load_fields(args.a, pattern)
    fb = load_fields(args.b, pattern)

    flagged = []
    rows = []
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key), fb.get(key)
        if va is None or vb is None:
            rows.append((key, va, vb, None, "  << ONLY IN " + ("B" if va is None else "A")))
            flagged.append(key)
            continue
        if va == vb:
            if args.all:
                rows.append((key, va, vb, 0.0, ""))
            continue
        # Relative change against the baseline; a zero baseline with any
        # change is treated as beyond every tolerance.
        rel = (vb - va) / abs(va) if va != 0 else float("inf")
        mark = ""
        if abs(rel) > args.tolerance:
            mark = "  << CHANGED"
            flagged.append(key)
        rows.append((key, va, vb, rel, mark))

    if not rows:
        print(f"identical within filter ({len(fa)} numeric fields compared)")
        return 0

    w = max(len(r[0]) for r in rows)
    print(f"{'field':<{w}} {'A':>14} {'B':>14} {'delta':>9}")
    for key, va, vb, rel, mark in rows:
        sa = f"{va:.6g}" if va is not None else "-"
        sb = f"{vb:.6g}" if vb is not None else "-"
        sd = f"{rel:+.2%}" if rel not in (None, float("inf")) else ("inf" if rel else "-")
        print(f"{key:<{w}} {sa:>14} {sb:>14} {sd:>9}{mark}")

    if flagged:
        print(
            f"\n{len(flagged)} field(s) changed beyond {args.tolerance:.0%} "
            f"(of {len(rows)} differing/compared)"
        )
        return 1
    print(f"\nOK: no field changed beyond {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

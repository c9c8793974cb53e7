#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root.

  python3 perfbench/check.py steadiness [--runs 10] [--workloads a,b] [--seconds S]
      Runs every workload in two interleaved sets (same seeds, alternating
      which set goes first) and reports, per end-to-end metric, each set's
      median and quartiles, the spread (q3 - q1) / median of each set and the
      set-to-set drift of the median. A metric is flagged when its spread
      exceeds its bound (setup_s excepted) or a third of it (the target), or
      when its drift in the worse direction exceeds its bound.

  python3 perfbench/check.py determinism [--workloads a,b] [--seed S] [--seconds S]
      Two runs with one seed must give identical exact metrics
      (modeled_cycles, code_bytes, speedup_vs_coder) and identical per-layer
      counts and ratios of the traced replay; another seed must give another
      corpus digest.

Bounds, units and directions come from BENCHMARK.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

EXACT = ["modeled_cycles", "code_bytes", "speedup_vs_coder"]
# Daemon-side per-layer numbers depend on thread timing (joins, which
# request compiles first); the replay's own counts must repeat exactly.
TIMING_DEPENDENT_PREFIXES = ("serve.", "replay.")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    digest = next((m.group(1) for l in lines if (m := re.search(r"digest (\w+)", l))), None)
    if not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("INVALID")), file=sys.stderr)
    return result, digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(spec, args):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values = {}  # (set, workload, metric) -> [values]
    for r in range(args.runs):
        for w in workloads:
            for s in ("AB" if r % 2 == 0 else "BA"):
                result, _ = run(spec, w, args.seed + r, seconds, 0)
                if not result["correct"]:
                    print(f"run {s} {w} seed {args.seed + r}: correct=false", file=sys.stderr)
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print(f"  set {s} run {r} {w}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    failed = False
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}  flags")
        for name, m in metrics.items():
            bound = m["bound"]
            meds = {}
            for s in "AB":
                v = values.get((s, w, name), [])
                if not v:
                    continue
                q1, med, q3 = quartiles(v)
                meds[s] = med
                spread = (q3 - q1) / abs(med) if med else float("inf")
                flags = []
                if name != "setup_s" and spread > bound:
                    flags.append("SPREAD>BOUND")
                    failed = True
                elif name != "setup_s" and spread > bound / 3:
                    flags.append("spread>bound/3")
                print(f"  {name:<18} {s:>3} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6}  {' '.join(flags)}")
            if len(meds) == 2 and meds["A"]:
                drift = (meds["B"] - meds["A"]) / abs(meds["A"])
                worse = drift if m["better"] == "lower" else -drift
                flag = "DRIFT>BOUND" if worse > bound else ""
                failed |= worse > bound
                print(f"  {name:<18} drift B vs A {drift:+.4f} (worse-direction {worse:+.4f})  {flag}")
    return 1 if failed else 0


def determinism(spec, args):
    per_layer = [m["name"] for m in spec["per_layer"]
                 if m["unit"] in ("count", "ratio") and not m["name"].startswith(TIMING_DEPENDENT_PREFIXES)]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    failed = False
    for w in workloads:
        a, da = run(spec, w, args.seed, seconds, 0)
        b, db = run(spec, w, args.seed, seconds, 0)
        c, dc = run(spec, w, args.seed + 1, seconds, 0)
        ta, _ = run(spec, w, args.seed, seconds, 1)
        tb, _ = run(spec, w, args.seed, seconds, 1)
        problems = []
        for name in EXACT:
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                problems.append(f"{name}: {a['metrics'][name]['value']} != {b['metrics'][name]['value']}")
        for name in per_layer:
            if ta["metrics"][name]["value"] != tb["metrics"][name]["value"]:
                problems.append(f"{name}: {ta['metrics'][name]['value']} != {tb['metrics'][name]['value']}")
        if da != db:
            problems.append(f"corpus digest differs for one seed: {da} vs {db}")
        if da == dc:
            problems.append(f"seeds {args.seed} and {args.seed + 1} give the same corpus {da}")
        for r in (a, b, c, ta, tb):
            if not r["correct"]:
                problems.append("a run reported correct=false")
        status = "ok" if not problems else "FAILED"
        print(f"{w}: determinism {status} (digest {da} vs seed+1 {dc}; "
              f"{len(EXACT)} exact metrics, {len(per_layer)} per-layer counts compared)")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["steadiness", "determinism"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--workloads", type=lambda s: s.split(","), default=None)
    args = p.parse_args()
    spec = load_spec()
    sys.exit(steadiness(spec, args) if args.mode == "steadiness" else determinism(spec, args))


if __name__ == "__main__":
    main()

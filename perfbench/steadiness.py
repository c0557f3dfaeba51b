#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Runs every workload in --sets separate sets of --runs runs each, every
run with its own seed, one set after the other. For each end-to-end
metric it prints, per set, the median and the quartiles
(statistics.quantiles(n=4)) with the spread (Q3 - Q1) / median, and the
drift of each later set's median from the first set's, counted in the
metric's worse direction. Both are shown next to the metric's bound in
BENCHMARK.json:

  spread  must stay within the bound (setup_s excepted); the target
          is a third of it,
  drift   must stay within the bound for every metric.

Metrics that the benchmark defines as deterministic must read exactly
the same in every run. Raw results go to .bench_out/steadiness.json.
Exit status is 1 when any run fails or any check above does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT = {"stored_bytes_per_kinstr"}


def run_once(spec, workload, seed):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if res.returncode != 0 or not result or not result.get("correct"):
        sys.stderr.write(res.stdout[-3000:] + res.stderr[-3000:])
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results = {}  # workload -> set -> list of metric dicts
    ok = True
    for s in range(args.sets):
        for name in names:
            for i in range(args.runs):
                seed = args.seed_base * (s + 1) + i
                got = run_once(spec, name, seed)
                print(f"set {s} {name} seed {seed}: "
                      f"{'ok' if got else 'FAILED'}", flush=True)
                if got is None:
                    ok = False
                    continue
                results.setdefault(name, {}).setdefault(s, []).append(got)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results, indent=1))

    for name in names:
        sets = results.get(name, {})
        if len(sets) < args.sets or any(len(v) < 2 for v in sets.values()):
            print(f"{name}: not enough successful runs")
            ok = False
            continue
        print(f"\n== {name} ({args.sets} sets x {args.runs} runs)")
        print(f"  {'metric':26s} {'bound':>6s}  "
              + "  ".join(f"{'median' + str(s):>11s} {'Q1':>10s} {'Q3':>10s}"
                          f" {'spread':>7s}" for s in range(args.sets))
              + f"  {'drift':>7s}  verdict")
        for m in metrics:
            bound = m["bound"]
            cols, meds, flags = [], [], []
            for s in range(args.sets):
                vals = [r[m["name"]] for r in sets[s]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                cols.append(f"{med:11.5g} {q1:10.5g} {q3:10.5g} "
                            f"{spread:7.2%}")
                if m["name"] != "setup_s":
                    if spread > bound:
                        flags.append(f"spread{s}>bound")
                    elif spread > bound / 3:
                        flags.append(f"spread{s}>bound/3")
                if m["name"] in EXACT and len(set(vals)) != 1:
                    flags.append("not-exact")
            worst = 0.0
            for med in meds[1:]:
                change = (med - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                worst = max(worst, worse)
            if worst > bound:
                flags.append("drift>bound")
            if any(f.endswith(">bound") or f == "not-exact" for f in flags):
                ok = False
            print(f"  {m['name']:26s} {bound:6.0%}  " + "  ".join(cols)
                  + f"  {worst:7.2%}  {' '.join(flags) or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric's spread.

For every workload in BENCHMARK.json this runs perfbench/run.py once per
seed, then prints per end-to-end metric the median, the quartiles, the
spread (distance between the first and third quartile as a share of the
median, from statistics.quantiles(values, n=4)) and the metric's bound.
With --traced it also makes one traced run per workload and prints the
per-layer metrics and the traced run's own host figures (compare them with
the untraced medians for the tracing overhead).  Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--traced]

Raw JSON results go to .bench_out/spread-<workload>.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (rc {out.returncode}):\n{out.stderr[-2000:]}")
    for line in out.stderr.splitlines():
        if "traced:" in line:
            print(f"   {line}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    for w in workloads:
        results = []
        with open(out_dir / f"spread-{w}.jsonl", "w") as f:
            for seed in parse_seeds(args.seeds):
                r = run(w, seed, seconds, 0)
                f.write(json.dumps({"seed": seed, **r}) + "\n")
                f.flush()
                results.append(r)
        bad = [r for r in results if not r["correct"]]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n== {w}: {len(results)} run(s), {len(bad)} incorrect, failed shares {sorted(shares)}")
        print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6.2f}{flag}")
        if args.traced:
            t = run(w, parse_seeds(args.seeds)[0], seconds, 1)
            print(f"-- traced run (correct={t['correct']}):")
            for name, m in sorted(t["metrics"].items()):
                print(f"   {name:36s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    main()

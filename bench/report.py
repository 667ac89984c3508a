"""Run every workload over several seeds and summarise each metric.

    python3 bench/report.py --seeds 1-10 [--trace 1] [--out bench/baseline.json]

Each run is `bench/run.py` in its own process with the settings of
BENCHMARK.json.  For every metric the summary gives the median, the
quartiles of `statistics.quantiles(values, n=4)` and their distance as a
share of the median, next to the metric's bound, plus the ops per run and
the median fail_frac.  --out also records the per-run values and the
machine (Python version, CPU count).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload: str, seed: int, trace: int, seconds: int):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def summarise(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    seeds = seed_range(args.seeds)
    record = {
        "machine": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                    "cpu_count": os.cpu_count(), "machine": platform.machine(), "system": platform.system()},
        "run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": seeds, "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            result, digest = run_once(bench, name, seed, args.trace, bench["run_seconds"])
            runs.append({"seed": seed, "digest": digest, **result})
            print(f"{name} seed {seed}: correct {result['correct']} attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        summary = {}
        ops = [r["attempted"] for r in runs]
        fail_frac = statistics.median(r["failed"] / r["attempted"] for r in runs)
        print(f"\n{name}: {len(runs)} runs of {min(ops)}-{max(ops)} ops; median fail_frac {fail_frac:.4f}")
        print(f"  {'metric':58s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
        for metric, spec in declared.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = summarise(values)
            summary[metric] = {**s, "unit": spec["unit"], "bound": spec.get("bound")}
            spread = s.get("spread")
            print(f"  {metric:58s} {s['median']:11.5g} {s.get('q1', 0):11.5g} {s.get('q3', 0):11.5g} "
                  f"{'' if spread is None else f'{spread:7.3f}':>7s} {spec.get('bound', ''):>6}", flush=True)
        record["workloads"][name] = {"summary": summary, "runs": runs}
        print()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

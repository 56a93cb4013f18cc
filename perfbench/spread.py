"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py [--trace-runs N] [--out FILE]

Runs perfbench/run.py on every workload of BENCHMARK.json at seeds 1-10,
with the run length of BENCHMARK.json, then prints, for every end-to-end
metric, the median, the quartiles from statistics.quantiles(values, n=4)
and their distance as a share of the median next to the metric's bound.
Exits 1 if a spread is over its bound or a run failed. --trace-runs adds
traced runs at seeds 1..N and the median of each per-layer metric. --out
writes everything, every run's values included, as JSON
(perfbench/baseline.json is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}:"
                           f" {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in SEEDS:
            env, result = run_once(name, seed, bench["run_seconds"], 0)
            report["env"] = env
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']}", flush=True)
        entry: dict = {"runs": runs, "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            within = stats["spread"] is not None and stats["spread"] <= bound
            flag = "" if within else "  OVER BOUND"
            ok = ok and within
            print(f"  {name:14s} {metric:16s} median {stats['median']:.6g}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.4f} bound {bound}{flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry["failed_ratio"] = failed / attempted
        ok = ok and failed == 0
        print(f"  {name:14s} failed_ratio {failed}/{attempted}")
        if args.trace_runs:
            traced = []
            for seed in SEEDS[:args.trace_runs]:
                _, result = run_once(name, seed, bench["run_seconds"], 1)
                traced.append({"seed": seed, "failed": result["failed"],
                               "metrics": {k: v["value"]
                                           for k, v in result["metrics"].items()}})
                if result["failed"]:
                    ok = False
                    print(f"  {name} traced seed {seed}: {result['failed']} failed")
            entry["traced_runs"] = traced
            entry["per_layer"] = {k: statistics.median(t["metrics"][k] for t in traced)
                                  for k in traced[0]["metrics"]}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

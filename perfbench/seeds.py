"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/seeds.py --workloads gap-sweep simulate --seeds 1-10 \\
        [--trace-seed 1] [--out perfbench/trajectory/entry-1.json]

For every workload it runs ``run.py`` once per seed (in sequence), then
prints each end-to-end metric's median, quartiles and spread (the
interquartile distance over the median, as the bounds in BENCHMARK.json are
read).  With ``--trace-seed`` it adds one traced run.  With ``--out`` it
writes all of it, raw runs included, as one trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    entry = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s wall, "
                  f"failed {runs[-1]['failed']}/{runs[-1]['attempted']}, "
                  f"correct {runs[-1]['correct']}", file=sys.stderr)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary[name] = summarise(
                [r["metrics"][name]["value"] for r in runs])
            summary[name]["bound"] = metric["bound"]
            print(f"{workload:13s} {name:12s} median {summary[name]['median']:12.6g}"
                  f"  spread {summary[name]['spread']:.4f}"
                  f"  (bound {metric['bound']})")
        record = {"summary": summary, "runs": runs,
                  "all_correct": all(r["correct"] for r in runs),
                  "failed_frac_median": statistics.median(
                      r["failed"] / r["attempted"] for r in runs)}
        if args.trace_seed is not None:
            record["traced"] = run_once(workload, args.trace_seed, seconds, 1)
        entry["workloads"][workload] = record
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and write a record (JSON).

    python3 bench/record.py --seeds 1-10 [--workloads a,b] [--seconds 25]
                            [--trace-seed 1] [--out bench/records/NAME.json]

For each workload, `run.py --trace 0` runs once per seed; each end-to-end
metric is summarised by its median, quartiles and spread (interquartile
distance / median, the figure the bounds in BENCHMARK.json are held
against).  With --trace-seed, one traced run per workload adds the per-layer
numbers.  The record also keeps every run's metrics and per-solve medians.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int, details: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--details", str(details)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    extra = json.loads(details.read_text(encoding="utf-8"))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in
                                                    result["metrics"].items()},
            "raw": extra["raw"], "per_solve": extra["per_solve"], "errors": extra["errors"]}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(corpus.WORKLOADS))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    details = ROOT / ".bench_work" / "details.json"
    details.parent.mkdir(exist_ok=True)
    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [run_once(name, s, args.seconds, 0, details) for s in seeds]
        metrics = {k: summarise([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        metrics.update({f"raw_{k}": summarise([r["raw"][k] for r in runs])
                        for k in runs[0]["raw"]})
        solves = {k: statistics.median(r["per_solve"][k] for r in runs)
                  for k in runs[0]["per_solve"]}
        entry = {"metrics": metrics, "per_solve_median_s": solves,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "runs": runs}
        if args.trace_seed is not None:
            entry["traced"] = run_once(name, args.trace_seed, args.seconds, 1, details)
        record["workloads"][name] = entry
        print(f"{name}: failed {entry['failed']}/{entry['attempted']}")
        for k, s in metrics.items():
            print(f"  {k:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --workloads desk_ingsl,verify --seeds 0-9 \
        --seconds 25 --trace 0 --out perfbench/out/summary.json

Each (workload, seed) runs run.py in its own process, one at a time. For
every metric the summary gives the values, their median, quartiles and the
spread (q3 - q1) / median, with quartiles as statistics.quantiles(n=4) gives
them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    summary = {"seconds": float(args.seconds), "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        results, envs = [], []
        for seed in seeds:
            result, env = run_one(name, seed, args.seconds, args.trace)
            results.append(result)
            envs.append(env)
            print(name, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {
            k: {"unit": m["unit"], **summarise([r["metrics"][k]["value"] for r in results])}
            for k, m in results[0]["metrics"].items()
        }
        summary["workloads"][name] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "env": {k: v for k, v in envs[0].items() if k != "seed"},
            "metrics": metrics,
        }
        for k, m in metrics.items():
            print(f"{name} {k}: median {m['median']:.6g} {m['unit']}, spread {m['spread']:.4f}")
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

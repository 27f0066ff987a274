"""Steadiness report: run workloads repeatedly and summarise each metric.

    python3 e2ebench/steady.py --workloads sweep,deep,service --runs 10 \\
        --first-seed 1 --out set1.json
    python3 e2ebench/steady.py --compare set1.json set2.json

For every end-to-end metric of every workload the report gives the median,
the quartiles (``statistics.quantiles(values, n=4)``), the sample count and
the relative spread (interquartile distance / median).  ``--compare`` checks
two sets of runs against BENCHMARK.json: each spread within its metric's
bound, and the second median no worse than the first by more than the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4)
                 if len(values) > 1 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "count": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(workloads: list[str], runs: int, first_seed: int,
            seconds: int) -> dict:
    report: dict = {}
    for workload in workloads:
        samples: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"# {workload} seed {seed}: NOT CORRECT "
                      f"({result['failed']}/{result['attempted']} failed)")
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        report[workload] = {k: summarise(v) for k, v in samples.items()}
    return report


def print_report(report: dict) -> None:
    limits = bounds()
    for workload, metrics in report.items():
        for name, s in metrics.items():
            bound = limits.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = " ok" if s["spread"] <= bound / 3 else (
                    " WIDE" if s["spread"] > bound else " >bound/3")
            print(f"{workload:8s} {name:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} n {s['count']:2d} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")


def compare(first: dict, second: dict) -> bool:
    limits = bounds()
    ok = True
    for workload in first:
        for name, a in first[workload].items():
            b = second.get(workload, {}).get(name)
            if b is None or name not in limits:
                continue
            bound = limits[name]["bound"]
            lower = limits[name]["better"] == "lower"
            worse = ((b["median"] - a["median"]) if lower
                     else (a["median"] - b["median"])) / a["median"]
            spread_ok = max(a["spread"], b["spread"]) <= bound
            good = worse <= bound and spread_ok
            ok &= good
            print(f"{workload:8s} {name:12s} {a['median']:10.4f} -> "
                  f"{b['median']:10.4f} worse by {worse:+.4f} "
                  f"spreads {a['spread']:.4f}/{b['spread']:.4f} "
                  f"bound {bound} {'ok' if good else 'FAIL'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/steady.py")
    parser.add_argument("--workloads", default="sweep,deep,service")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar="SET.json")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = collect(args.workloads.split(","), args.runs, args.first_seed,
                     seconds)
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

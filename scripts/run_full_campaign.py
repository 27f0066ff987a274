#!/usr/bin/env python3
"""Run the paper-scale campaign (1068 samples x 14 workloads x 3 tools =
44,856 experiments) and persist the results for EXPERIMENTS.md and the
benchmark harness.

Usage: python scripts/run_full_campaign.py [N] [outfile.json] [seed]
                                           [--workers K] [--checkpoint-dir D]
                                           [--events F] [--keep-records]

With --checkpoint-dir, a killed run resumes from its per-cell checkpoints on
the next invocation and produces counts bit-identical to an uninterrupted
run (seeds are pure functions of the global experiment index).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.campaign import EventLog, PAPER_SAMPLES, run_matrix, save_matrix
from repro.fi import TOOL_ORDER
from repro.stats import ContingencyTable, margin_of_error
from repro.workloads import workload_sources


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", nargs="?", type=int, default=PAPER_SAMPLES)
    parser.add_argument("outfile", nargs="?",
                        default="results/full_campaign.json")
    parser.add_argument("seed", nargs="?", default=None,
                        help="base seed (accepts 0x... hex)")
    parser.add_argument("--workers", type=int, default=1,
                        help="local worker processes leasing tasks from "
                        "one loopback coordinator (1 = sequential)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="per-cell checkpoints; rerun to resume")
    parser.add_argument("--events", default=None,
                        help="append JSONL telemetry to this file")
    parser.add_argument("--keep-records", action="store_true",
                        help="keep per-experiment fault logs and save the "
                        "raw matrix next to the outfile")
    args = parser.parse_args()
    n = args.n

    sources = workload_sources()
    t0 = time.time()
    print(
        f"running {n} x {len(sources)} x {len(TOOL_ORDER)} = "
        f"{n * len(sources) * len(TOOL_ORDER)} experiments "
        f"(margin of error {margin_of_error(n) * 100:.1f}%)",
        flush=True,
    )

    def progress(w, t, i, total):
        if i == total:
            print(f"  [{time.time() - t0:7.0f}s] {w}/{t} done", flush=True)

    kwargs = {}
    if args.seed is not None:
        kwargs["base_seed"] = int(args.seed, 0)
    events = EventLog(path=args.events) if args.events else None
    try:
        matrix = run_matrix(
            sources, TOOL_ORDER, n=n, progress=progress,
            keep_records=args.keep_records, workers=args.workers,
            checkpoint_dir=args.checkpoint_dir, events=events, **kwargs,
        )
    finally:
        if events is not None:
            events.close()

    payload = {
        "n": n,
        "margin_of_error": margin_of_error(n),
        "elapsed_seconds": time.time() - t0,
        "results": {},
        "chi2": {},
    }
    for (workload, tool), res in matrix.items():
        crash, soc, benign = res.frequencies()
        payload["results"][f"{workload}/{tool}"] = {
            "crash": crash,
            "soc": soc,
            "benign": benign,
            "total_cycles": res.total_cycles,
            "total_candidates": res.total_candidates,
        }
    for workload in sources:
        for tool in ("LLFI", "REFINE"):
            table = ContingencyTable.from_results(
                matrix[(workload, tool)], matrix[(workload, "PINFI")]
            )
            test = table.test()
            payload["chi2"][f"{workload}/{tool}-vs-PINFI"] = {
                "statistic": test.statistic,
                "p_value": test.p_value,
                "significant": test.significant,
            }

    os.makedirs(os.path.dirname(args.outfile) or ".", exist_ok=True)
    with open(args.outfile, "w") as fh:
        json.dump(payload, fh, indent=2)
    if args.keep_records:
        raw_path = os.path.splitext(args.outfile)[0] + ".matrix.json"
        save_matrix(matrix, raw_path)
        print(f"wrote raw matrix (with fault logs) to {raw_path}", flush=True)
    print(f"wrote {args.outfile} after {time.time() - t0:.0f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

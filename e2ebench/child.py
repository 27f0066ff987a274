"""Fresh-process steps of the benchmark (run with the checkout's ``src`` on
``PYTHONPATH``):

* ``warmup`` — import every ``repro`` module, so ``.pyc`` compilation is
  paid once and discarded;
* ``setup PROGRAMS`` — everything a campaign does before its first
  experiment: import, then ``make_tool(...).profile`` for every cell;
  prints the cells' golden outputs as JSON;
* ``reference PROGRAMS`` — the independent reference: the IR interpreter
  on the frontend's unoptimised IR, one run per program, as JSON;
* ``trace WORKLOAD SEED OUT TMP`` — the workload's campaign in this
  process with every layer wrapped (see ``tracer.py``); prints the CSV and
  writes the per-layer summary to ``OUT``;
* ``replay RECORDS`` — re-run sampled experiments from instruction 0 on
  the reference engine and print every disagreement as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

from checks import cycles_by_tool
from procs import steal_s
from suite import TOOLS, WORKLOADS, Workload


def warmup() -> None:
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(info.name)


def setup(programs: list[str]) -> None:
    from repro.campaign import make_tool
    from repro.workloads import workload_sources

    sources = workload_sources()
    goldens = {}
    for program in programs:
        for tool in TOOLS:
            profile = make_tool(tool, sources[program], program).profile
            goldens[f"{program}/{tool}"] = list(profile.golden_output)
    print(json.dumps(goldens))


def reference(programs: list[str]) -> None:
    from repro.frontend import compile_source
    from repro.testing.interp import interpret
    from repro.workloads import workload_sources

    sources = workload_sources()
    out = {}
    for program in programs:
        result = interpret(compile_source(sources[program], program))
        out[program] = {
            "output": list(result.output), "exit_code": result.exit_code,
            "trap": result.trap,
        }
    print(json.dumps(out))


def sample_indices(wl: Workload, seed: int) -> dict[tuple[str, str], set[int]]:
    """The experiments per cell that the traced run keeps for replay."""
    return {
        (p, t): set(random.Random(f"e2ebench:{seed}:{p}:{t}").sample(
            range(wl.n), min(wl.replays_per_cell, wl.n)))
        for p, t in wl.cells
    }


def trace(workload: str, seed: int, out: str, tmp: str) -> int:
    from tracer import TARGETS, Tracer, layer_metrics

    wl = WORKLOADS[workload]
    tracer = Tracer(sample_indices(wl, seed))
    tracer.install(TARGETS)
    from repro.cli import campaign_main

    argv = wl.campaign_argv(seed)
    buf = io.StringIO()
    svc = None
    if wl.service:
        from repro.service import LocalService

        tmp_dir = Path(tmp)
        svc = LocalService(
            workers=1, queue_path=tmp_dir / "queue.sqlite",
            db_path=tmp_dir / "results.sqlite",
            checkpoint_root=tmp_dir / "checkpoints",
        )
        argv = ["--submit", f"{svc.host}:{svc.port}", "--watch", *argv]
    try:
        start, steal_start = time.perf_counter(), steal_s()
        with contextlib.redirect_stdout(buf):
            rc = campaign_main(argv)
        end, steal_end = time.perf_counter(), steal_s()
    finally:
        if svc is not None:
            svc.stop()
    csv = buf.getvalue()
    sys.stdout.write(csv)
    sys.stdout.flush()
    summary = {
        "rc": rc,
        "window_s": end - start,
        "window_steal_s": steal_end - steal_start,
        "metrics": layer_metrics(
            tracer, end - start, start, end, cycles_by_tool(csv)),
        "goldens": {f"{w}/{t}": g for (w, t), g in tracer.goldens.items()},
        "records": sorted(tracer.records.values(),
                          key=lambda r: (r["workload"], r["tool"], r["index"])),
        "missing": tracer.missing,
    }
    summary["post_s"] = time.perf_counter() - end
    Path(out).write_text(json.dumps(summary))
    return rc


def replay(records_path: str) -> None:
    from repro.campaign import make_tool
    from repro.campaign.classify import classify
    from repro.workloads import workload_sources

    sources = workload_sources()
    tools = {}
    mismatches = []
    records = json.loads(Path(records_path).read_text())
    for rec in records:
        key = (rec["workload"], rec["tool"])
        tool = tools.get(key)
        if tool is None:
            tool = tools[key] = make_tool(
                rec["tool"], sources[rec["workload"]], rec["workload"],
                engine="reference")
        run = tool.inject(rec["seed"])
        got = {
            "outcome": classify(run.result, tool.profile.golden_output).value,
            "steps": run.result.steps, "trap": run.result.trap,
            "exit_code": run.result.exit_code,
        }
        if any(got[k] != rec[k] for k in got):
            mismatches.append({"record": rec, "replayed": got})
    print(json.dumps({"checked": len(records), "mismatches": mismatches}))


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "warmup":
        warmup()
    elif mode == "setup":
        setup(args[0].split(","))
    elif mode == "reference":
        reference(args[0].split(","))
    elif mode == "trace":
        return trace(args[0], int(args[1]), args[2], args[3])
    elif mode == "replay":
        replay(args[0])
    else:
        print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

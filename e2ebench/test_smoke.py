"""Smoke test of the benchmark itself (one program at tiny n).

    python3 -m pytest e2ebench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from suite import TOOLS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = WORKLOADS["smoke"]


def run_bench(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    lines = run_bench(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[2]: line.split()[-1] for line in lines[:-1]
               if len(line.split()) == 5}
    for name, unit in want.items():
        assert printed.get(name) == unit, name
    if trace == 0:
        assert printed["failed_frac"] == "ratio"


def _csv(rows):
    return "\n".join([checks.HEADER, *rows])


GOOD = _csv([f"EP,{t},4,1,2,1,1000,50" for t in TOOLS])


def test_correct_csv_passes():
    assert checks.check_csv(GOOD, SMOKE) == (0, [])
    assert checks.compare_csv(GOOD, GOOD, SMOKE, "rep") == (0, [])


def test_wrong_count_is_flagged():
    failed, problems = checks.check_csv(
        GOOD.replace("EP,REFINE,4,1,2,1", "EP,REFINE,4,1,2,2"), SMOKE)
    assert failed == SMOKE.n and problems


def test_missing_row_and_changed_bytes_are_flagged():
    failed, problems = checks.check_csv("\n".join(GOOD.split("\n")[:-1]), SMOKE)
    assert failed == SMOKE.n and "missing row EP/PINFI" in problems
    failed, problems = checks.compare_csv(
        GOOD, GOOD.replace("EP,LLFI,4,1,2,1,1000", "EP,LLFI,4,1,2,1,1001"),
        SMOKE, "rep")
    assert failed == SMOKE.n and problems


def test_wrong_golden_is_flagged():
    reference = {"EP": {"output": ["1"], "exit_code": 0, "trap": None}}
    goldens = {f"EP/{t}": ["1"] for t in TOOLS}
    assert checks.check_goldens(goldens, reference, SMOKE) == ([], [])
    goldens["EP/LLFI"] = ["2"]
    bad, problems = checks.check_goldens(goldens, reference, SMOKE)
    assert bad == [("EP", "LLFI")] and problems


MISSING_LAYER = """
import contextlib, io, json, sys, time
sys.path.insert(0, {bench!r})
from tracer import TARGETS, Target, Tracer, layer_metrics
gone = "repro.engine.cache:Translation.add_suffix"
targets = [t for t in TARGETS if t.path != gone]
targets.append(Target("engine.suffix", gone + "_deleted"))
tracer = Tracer()
tracer.install(targets)
from repro.cli import campaign_main
buf = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(buf):
    rc = campaign_main({argv!r})
end = time.perf_counter()
print(json.dumps({{"rc": rc, "csv": buf.getvalue(),
    "metrics": layer_metrics(tracer, end - start, start, end, {{}})}}))
"""


def test_missing_layer_degrades_cleanly():
    """A wrap target deleted by a later change: warning, zeros, and the
    campaign still runs."""
    script = MISSING_LAYER.format(bench=str(BENCH),
                                  argv=SMOKE.campaign_argv(3))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=120, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "add_suffix_deleted is absent" in proc.stderr
    out = json.loads(proc.stdout)
    assert out["rc"] == 0
    assert checks.check_csv(out["csv"], SMOKE) == (0, [])
    metrics = out["metrics"]
    assert metrics["trace.missing_targets"] == 1
    assert metrics["engine.suffix_self_s"] == 0
    assert metrics["engine.suffix_calls"] == 0
    assert metrics["engine.tail_self_s"] > 0

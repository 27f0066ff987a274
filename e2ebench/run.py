"""End-to-end campaign benchmark.

    python3 e2ebench/run.py --workload sweep|deep|service --seed N \\
        --seconds S --trace 0|1

Runs the real ``refine-campaign`` CLI (for ``service``: ``refine-service
serve`` + one ``refine-worker`` + ``refine-campaign --submit --watch``) in
fresh processes, back to back, until ``--seconds`` have been spent (at
least twice).  Prints every metric with its unit, then, as the last line of
stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` additionally
runs the campaign once in a traced fresh process and reports the per-layer
metrics.  See README.md for every metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
from procs import CHILD, ROOT, SRC, Child, Exit, cli_argv, steal_s
from suite import WORKLOADS, Workload

#: the whole run must end well inside 180 s
RUN_DEADLINE_S = 165.0
#: bring-up deadline for each service process
SERVICE_UP_S = 30.0
#: every run repeats the workload command at least this often, so each
#: run compares CSVs across repetitions and reports a median over them
MIN_REPS = 2
#: the host's speed drifts over tens of seconds, so the set-ups run in this
#: many batches, one before each of the first repetitions of the measured
#: loop, and their median samples the whole run rather than its start
SETUP_BATCHES = 3

#: printed as a line and carried by ``failed``/``attempted``, but not a
#: BENCHMARK.json metric: it reads 0 on a correct run
FAILED_FRAC_UNIT = "ratio"


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Run:
    """One benchmark run: its children, tallies and problems."""

    def __init__(self, wl: Workload, seed: int, seconds: int, tmp: Path):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.children: list[Child] = []
        self._spawned = 0
        #: per untraced repetition of the workload command
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.rss: list[float] = []
        self.service_up: list[float] = []
        self.setup_walls: list[float] = []
        self.setups_run = 0
        self.first_csv: str | None = None
        #: campaigns run (untraced repetitions plus the traced one)
        self.runs = 0
        #: cells whose golden output disagrees with the reference
        self.bad_cells: set[tuple[str, str]] = set()

    # -- plumbing ------------------------------------------------------------

    def deadline(self, cap: float) -> float:
        return min(time.perf_counter() + cap, self.started + RUN_DEADLINE_S)

    def spawn(self, argv: list[str], label: str) -> Child:
        self._spawned += 1
        child = Child(argv, self.tmp, f"{self._spawned:03d}-{label}",
                      hash_seed=self.seed * 7919 + self._spawned)
        self.children.append(child)
        return child

    def helper(self, args: list[str], label: str, cap: float) -> Exit:
        """A benchmark-side child (``child.py``), which must succeed."""
        exit_ = self.spawn([sys.executable, CHILD, *args], label).wait(
            self.deadline(cap))
        if not exit_.ok:
            what = "timed out" if exit_.timed_out else f"exit {exit_.returncode}"
            self.problem(f"{label} {what}: {exit_.stderr.strip()[-400:]}")
        return exit_

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"# e2ebench: {self.wl.name}: {text}", file=sys.stderr)

    def fail(self, experiments: int, problems: list[str]) -> None:
        self.failed += experiments
        for text in problems:
            self.problem(text)

    def reap_all(self) -> None:
        for child in self.children:
            if child.exit is None:
                child.signal(signal.SIGKILL)
                child.wait(time.perf_counter() + 10)

    # -- steps ---------------------------------------------------------------

    def warmup(self) -> None:
        """Discarded: pays ``.pyc`` compilation once."""
        self.helper(["warmup"], "warmup", 120)

    def reference(self) -> dict:
        exit_ = self.helper(
            ["reference", ",".join(self.wl.programs)], "reference", 60)
        return json.loads(exit_.stdout) if exit_.ok else {}

    def setups(self, reference: dict, count: int) -> None:
        """``count`` more fresh-process set-ups, up to the workload's
        ``setup_repeats``; each one's goldens are checked."""
        for _ in range(min(count, self.wl.setup_repeats - self.setups_run)):
            i = self.setups_run
            self.setups_run += 1
            exit_ = self.helper(
                ["setup", ",".join(self.wl.programs)], f"setup{i}", 60)
            if not exit_.ok:
                continue
            self.setup_walls.append(exit_.unstolen_s)
            bad, problems = checks.check_goldens(
                json.loads(exit_.stdout), reference, self.wl)
            self.bad_cells.update(bad)
            for text in problems:
                self.problem(f"setup {i}: {text}")

    def campaign_rep(self, label: str) -> tuple[Exit | None, str, list[Exit]]:
        argv = cli_argv("refine-campaign", self.wl.campaign_argv(self.seed))
        exit_ = self.spawn(argv, label).wait(self.deadline(150))
        return exit_, exit_.stdout, [exit_]

    def service_rep(self, label: str) -> tuple[Exit | None, str, list[Exit]]:
        """serve -> worker (after the address is printed) -> submit --watch
        -> SIGTERM drain.  Fresh queue, DB and checkpoint dirs every time:
        a reused checkpoint dir would resume and skip finished cells."""
        work = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.tmp))
        up_started, steal_started = time.perf_counter(), steal_s()
        serve = self.spawn(cli_argv("refine-service", [
            "serve", "--queue", str(work / "queue.sqlite"),
            "--db", str(work / "results.sqlite"),
            "--checkpoint-dir", str(work / "checkpoints"),
        ]), f"{label}-serve")
        procs = [serve]
        submit_exit = None
        try:
            found = serve.stderr_match(
                r"service listening on (\S+:\d+)", self.deadline(SERVICE_UP_S))
            if found is None:
                self.problem(f"{label}: refine-service printed no address")
                return None, "", []
            address = found.group(1)
            procs.append(self.spawn(
                cli_argv("refine-worker", [address]), f"{label}-worker"))
            if serve.stderr_match(r"worker \S+ joined",
                                  self.deadline(SERVICE_UP_S)) is None:
                self.problem(f"{label}: refine-worker never joined")
                return None, "", []
            self.service_up.append(time.perf_counter() - up_started
                                   - (steal_s() - steal_started))
            submit = self.spawn(cli_argv("refine-campaign", [
                "--submit", address, "--watch",
                *self.wl.campaign_argv(self.seed),
            ]), f"{label}-submit")
            procs.append(submit)
            submit_exit = submit.wait(self.deadline(150))
        finally:
            serve.signal(signal.SIGTERM)
            exits = [p.wait(self.deadline(30)) for p in procs]
        for name, e in zip(("serve", "worker", "submit"), exits):
            if not e.ok:
                what = "timed out" if e.timed_out else f"exit {e.returncode}"
                self.problem(f"{label}-{name} {what}: {e.stderr.strip()[-300:]}")
        if any(not e.ok for e in exits):
            return None, submit_exit.stdout, exits
        return submit_exit, submit_exit.stdout, exits

    def repeat(self, before_each=lambda: None) -> None:
        """The measured loop: the workload command back to back until
        ``--seconds`` have been spent, and at least ``MIN_REPS`` times.  A
        failed or timed-out repetition counts its experiments as failed;
        the loop goes on while time is left.  ``before_each`` runs before
        every repetition, outside the time spent."""
        rep = self.service_rep if self.wl.service else self.campaign_rep
        spent = 0.0
        while True:
            before_each()
            t0 = time.perf_counter()
            label = f"rep{self.runs}"
            main, csv, exits = rep(label)
            self.runs += 1
            self.attempted += self.wl.experiments
            if main is None or not main.ok:
                self.fail(self.wl.experiments,
                          [f"{label}: workload command failed"])
            else:
                self.walls.append(main.unstolen_s)
                self.cpus.append(sum(e.cpu_s for e in exits))
                self.rss.append(max(e.peak_rss_mb for e in exits))
                self.check_output(csv, label)
            spent += time.perf_counter() - t0
            left = self.started + RUN_DEADLINE_S - time.perf_counter()
            per_rep = spent / self.runs
            if ((self.runs >= MIN_REPS and spent >= self.seconds)
                    or 2 * per_rep > left):
                return

    def check_output(self, csv: str, what: str) -> None:
        failed, problems = checks.check_csv(csv, self.wl)
        if self.first_csv is None:
            self.first_csv = csv
        elif not failed:
            failed, problems = checks.compare_csv(
                self.first_csv, csv, self.wl, what)
        self.fail(failed, [f"{what}: {p}" for p in problems])

    # -- the two kinds of run ------------------------------------------------

    def untraced(self) -> dict[str, float]:
        self.warmup()
        reference = self.reference()
        batch = -(-self.wl.setup_repeats // SETUP_BATCHES)
        self.repeat(before_each=lambda: self.setups(reference, batch))
        self.setups(reference, self.wl.setup_repeats)
        self.charge_bad_goldens()
        setup_walls = self.setup_walls
        setup = statistics.median(setup_walls) if setup_walls else 0.0
        if self.wl.service and self.service_up:
            setup += statistics.median(self.service_up)
        if not setup_walls:
            self.problem("no set-up run succeeded")
        return {
            "exp_per_s": statistics.median(
                self.wl.experiments / w for w in self.walls) if self.walls else 0.0,
            "setup_s": setup,
            "cpu_s": statistics.median(self.cpus) if self.cpus else 0.0,
            "peak_rss_mb": statistics.median(self.rss) if self.rss else 0.0,
        }

    def traced(self) -> dict[str, float]:
        self.warmup()
        reference = self.reference()
        self.repeat()
        summary_path = self.tmp / "trace.json"
        work = Path(tempfile.mkdtemp(prefix="trace-", dir=self.tmp))
        exit_ = self.helper(
            ["trace", self.wl.name, str(self.seed), str(summary_path), str(work)],
            "trace", 170)
        self.runs += 1
        self.attempted += self.wl.experiments
        if not exit_.ok or not summary_path.exists():
            self.fail(self.wl.experiments, ["traced run failed"])
            return {}
        summary = json.loads(summary_path.read_text())
        if summary["rc"] != 0:
            self.fail(self.wl.experiments,
                      [f"traced campaign exited {summary['rc']}"])
            return {}
        self.check_output(exit_.stdout, "traced run")
        bad, problems = checks.check_goldens(
            summary["goldens"], reference, self.wl)
        self.bad_cells.update(bad)
        for text in problems:
            self.problem(f"traced run: {text}")
        self.charge_bad_goldens()
        self.replay(summary)
        metrics = summary["metrics"]
        traced_wall = (summary["window_s"] - summary["window_steal_s"]
                       if self.wl.service
                       else exit_.unstolen_s - summary["post_s"])
        untraced = statistics.median(self.walls) if self.walls else 0.0
        metrics["trace.overhead_frac"] = (
            traced_wall / untraced - 1.0 if untraced else 0.0)
        return metrics

    def replay(self, summary: dict) -> None:
        records = summary["records"]
        expected = len(self.wl.cells) * min(self.wl.replays_per_cell, self.wl.n)
        if "repro.campaign.results:CampaignResult.add" in summary["missing"]:
            self.problem("replay check impossible: CampaignResult.add is gone")
        elif len(records) != expected:
            self.fail(expected - len(records), [
                f"traced run captured {len(records)} of {expected} "
                "sampled experiments"])
        path = self.tmp / "records.json"
        path.write_text(json.dumps(records))
        exit_ = self.helper(["replay", str(path)], "replay", 120)
        if not exit_.ok:
            self.fail(len(records), ["replay failed"])
            return
        result = json.loads(exit_.stdout)
        self.fail(len(result["mismatches"]), [
            f"replay from instruction 0 disagrees: {m}"
            for m in result["mismatches"]])

    def charge_bad_goldens(self) -> None:
        """A wrong golden output taints its cell in every run."""
        self.fail(len(self.bad_cells) * self.wl.n * self.runs, [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"e2ebench: error: no repro sources under {SRC}",
              file=sys.stderr)
        return 2
    scratch_root = ROOT / ".e2ebench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, tmp)
    try:
        metrics = run.traced() if args.trace else run.untraced()
    finally:
        run.reap_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    run.failed = min(run.failed, run.attempted)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    unmeasured = sorted(units.keys() - metrics.keys())
    if unmeasured:
        run.problem(f"declared metrics not measured: {', '.join(unmeasured)}")
    lines = {name: (metrics.get(name, 0.0), unit)
             for name, unit in units.items()}
    if not args.trace:
        lines["failed_frac"] = (
            run.failed / run.attempted if run.attempted else 1.0,
            FAILED_FRAC_UNIT)
    for name, (value, unit) in lines.items():
        print(f"# {args.workload} {name:38s} {value:16.6f} {unit}")
    print(f"# {args.workload}: {run.runs} run(s) of {run.wl.experiments} "
          f"experiments, {run.failed}/{run.attempted} failed, "
          f"{len(run.problems)} problem(s)")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

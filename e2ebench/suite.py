"""The benchmark's workloads: which programs, tools and sample counts each
one runs, and the product command line it runs them with.

Program sets are fixed here (not read from ``repro.workloads``) so a later
change that adds or renames a workload cannot silently change what the
benchmark measures.  Every command line uses only stable product flags:
``-n -w -t --seed -q`` (plus ``--submit/--watch`` for the service).
"""

from __future__ import annotations

from dataclasses import dataclass

TOOLS = ("LLFI", "REFINE", "PINFI")

#: All 14 programs of the paper's Table 3, in the registry's order.
ALL_PROGRAMS = (
    "AMG2013", "CoMD", "HPCCG-1.0", "lulesh", "miniFE", "BT", "CG", "DC",
    "EP", "FT", "LU", "SP", "UA", "XSBench",
)


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple[str, ...]
    #: experiments per (program, tool) cell
    n: int
    #: fresh-process set-ups per run; ``setup_s`` is their median
    setup_repeats: int
    #: submit to ``refine-service serve`` + one ``refine-worker``
    service: bool = False
    #: replayed experiments per cell in the traced run
    replays_per_cell: int = 2

    @property
    def cells(self) -> list[tuple[str, str]]:
        return [(p, t) for p in self.programs for t in TOOLS]

    @property
    def experiments(self) -> int:
        return len(self.cells) * self.n

    def campaign_argv(self, seed: int) -> list[str]:
        """``refine-campaign`` arguments, minus ``--submit/--watch``."""
        return [
            "-n", str(self.n), "-w", ",".join(self.programs),
            "-t", ",".join(TOOLS), "--seed", str(seed), "-q",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Small n over every program: compile, block translation and
        # mid-block suffix translation are a large share of the wall time.
        Workload("sweep", ALL_PROGRAMS, n=8, setup_repeats=3,
                 replays_per_cell=1),
        # CG has the longest faulty tails: the engine, snapshot and campaign
        # loop dominate, and compile is a small share.
        Workload("deep", ("CG",), n=200, setup_repeats=9),
        # The shortest-tail programs through the campaign service: the only
        # workload that writes through the results DB, checkpoints and
        # leases, so per-experiment overhead shows.
        Workload("service", ("AMG2013", "EP", "DC", "FT"), n=30,
                 setup_repeats=7, service=True),
        # Not in BENCHMARK.json: one program at tiny n for the smoke test.
        Workload("smoke", ("EP",), n=4, setup_repeats=2, replays_per_cell=1),
    )
}

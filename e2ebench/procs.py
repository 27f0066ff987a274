"""Child processes with deadlines and per-child resource accounting.

Every child is reaped with ``os.wait4`` so its own user+sys CPU time and
peak RSS are read per process.  (``RUSAGE_CHILDREN``'s ``ru_maxrss`` is a
running maximum over every child so far and cannot tell runs apart.)
Output goes to files in the run's scratch directory, so a chatty child can
never block on a full pipe, and every wait has a deadline.  A wait blocks on
a pidfd rather than polling, so the benchmark itself stays off the CPUs
while it measures.

Each child also records the hypervisor steal time (``/proc/stat``) that
accrued between its start and its exit: time during which the host ran
someone else while a vCPU of this guest was ready to run.  On a shared
2-vCPU virtual machine it ranged from 5% to over half of a service run's
wall time, between runs minutes apart.  The timing metrics subtract it; on
a host that reports no steal it is 0.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = str(BENCH_DIR / "child.py")

#: Console-script entry points, invoked the way their wrappers do.
CLI = {
    "refine-campaign": "campaign_main",
    "refine-service": "service_main",
    "refine-worker": "worker_main",
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Hypervisor steal time summed over every CPU since boot, in seconds."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


def cli_argv(program: str, args: list[str]) -> list[str]:
    fn = CLI[program]
    return [
        sys.executable, "-c",
        f"import sys; from repro.cli import {fn}; sys.exit({fn}(sys.argv[1:]))",
        *args,
    ]


def child_env(hash_seed: int, tmp: Path) -> dict[str, str]:
    """Environment for a child: the checkout's ``src`` on the path, temp
    files inside the run's scratch dir, and an explicit ``PYTHONHASHSEED``,
    so hash-order bugs show as CSV diffs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = str(hash_seed % 4294967296)
    for var in ("REPRO_ENGINE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


@dataclass
class Exit:
    """How one child ended, with its own resource usage."""

    returncode: int | None
    wall_s: float
    #: hypervisor steal time over the child's life, all CPUs
    steal_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    @property
    def unstolen_s(self) -> float:
        """Wall time less the steal time that accrued during it."""
        return self.wall_s - self.steal_s


class Child:
    """A started subprocess whose stdout/stderr go to files under ``tmp``."""

    def __init__(self, argv: list[str], tmp: Path, label: str, hash_seed: int):
        self.out_path = tmp / f"{label}.out"
        self.err_path = tmp / f"{label}.err"
        self._out = open(self.out_path, "w")
        self._err = open(self.err_path, "w")
        self.started = time.perf_counter()
        self.steal_at_start = steal_s()
        self.proc = subprocess.Popen(
            argv, stdout=self._out, stderr=self._err,
            stdin=subprocess.DEVNULL, env=child_env(hash_seed, tmp), cwd=ROOT,
        )
        self.exit: Exit | None = None

    def stderr_match(self, pattern: str, deadline: float) -> re.Match | None:
        """Poll the child's stderr until ``pattern`` appears, the child
        exits, or ``deadline`` (a ``perf_counter`` time) passes."""
        regex = re.compile(pattern)
        while time.perf_counter() < deadline:
            found = regex.search(self.err_path.read_text())
            if found:
                return found
            if self.exited():
                return regex.search(self.err_path.read_text())
            time.sleep(0.01)
        return None

    def exited(self) -> bool:
        """Whether the child has ended, without reaping it (``Popen.poll``
        would reap it and lose its resource usage)."""
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.proc.pid, flags) is not None

    def signal(self, signum: int) -> None:
        """Signal the child unless it is reaped (an unreaped child keeps
        its pid, so this never hits another process)."""
        if self.exit is None:
            os.kill(self.proc.pid, signum)

    def wait(self, deadline: float) -> Exit:
        """Reap the child, killing it if it outlives ``deadline``."""
        if self.exit is not None:
            return self.exit
        pidfd = os.pidfd_open(self.proc.pid)
        try:
            timeout = max(0.0, deadline - time.perf_counter())
            timed_out = not select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - self.started
        stolen = steal_s() - self.steal_at_start
        if timed_out:
            self.signal(signal.SIGKILL)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._out.close()
        self._err.close()
        self.exit = Exit(
            returncode=None if timed_out else self.proc.returncode,
            wall_s=wall,
            steal_s=stolen,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            timed_out=timed_out,
            stdout=self.out_path.read_text(),
            stderr=self.err_path.read_text(),
        )
        return self.exit

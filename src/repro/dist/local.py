"""In-process cluster harness: a coordinator plus threaded workers.

``LocalCluster`` spins up a real :class:`~repro.dist.coordinator.Coordinator`
on a loopback port and N real :class:`~repro.dist.worker.Worker` instances
in daemon threads — the full TCP protocol, leases, heartbeats and retry
machinery, with none of the process management.  It exists for:

* deterministic end-to-end tests (including kill-a-worker-mid-campaign,
  via the worker ``die_after`` failpoint or a hand-driven
  :class:`~repro.dist.client.CoordinatorClient` that leases and goes
  silent);
* single-host "distributed" runs where process isolation per worker is
  not needed.

:func:`run_local_workers` is the process-based sibling behind
``run_matrix(workers=N)`` / ``refine-campaign -j N``: the same coordinator
on a loopback port, with N worker *processes*.
"""

from __future__ import annotations

import multiprocessing
import queue
import signal
import sys
import threading
import time
from typing import Callable

from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.events import EventLog
from repro.campaign.results import CampaignResult
from repro.dist.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    Coordinator,
)
from repro.dist.protocol import CampaignSpec
from repro.dist.worker import Worker, WorkerStats
from repro.errors import CampaignError, DistError

#: Worker processes are spawned: forking would copy into the child any
#: lock another thread holds at that instant, and the caller runs the
#: coordinator's threads.  Spawned workers import the package afresh (and
#: re-import a script's ``__main__``, which must keep its entry point
#: under the ``if __name__ == "__main__"`` check).
_CONTEXT = multiprocessing.get_context("spawn")

#: Seconds each worker process gets to exit after SIGTERM before SIGKILL.
STOP_TIMEOUT_S = 5.0

#: How often the ``-j`` runner re-checks its workers while no task lands.
_POLL_S = 0.1


class LocalCluster:
    """Coordinator + in-process workers, for tests and single-host runs.

    ::

        with LocalCluster(spec, workers=2, chunk_size=4) as cluster:
            results = cluster.results(timeout=60)

    Worker threads that die (failpoints, coordinator shutdown) never fail
    the cluster directly — fault tolerance is the coordinator's job, and
    :meth:`results` reflects only campaign-level success or failure.
    """

    def __init__(
        self,
        specs: CampaignSpec | list[CampaignSpec],
        workers: int = 2,
        *,
        chunk_size: int | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = 0.05,
        checkpoint_dir=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        events: EventLog | None = None,
    ) -> None:
        self.coordinator = Coordinator(
            specs, host="127.0.0.1", port=0,
            chunk_size=chunk_size, lease_timeout=lease_timeout,
            max_attempts=max_attempts, backoff_base=backoff_base,
            checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
            events=events,
        )
        self.host, self.port = self.coordinator.start()
        self._threads: list[threading.Thread] = []
        self._stats: list[WorkerStats | None] = []
        self._worker_errors: list[Exception] = []
        for _ in range(workers):
            self.start_worker()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start_worker(
        self,
        *,
        name: str | None = None,
        die_after: int | None = None,
    ) -> Worker:
        """Spawn one worker thread against this cluster's coordinator."""
        worker = Worker(self.host, self.port, name=name, die_after=die_after)
        slot = len(self._stats)
        self._stats.append(None)

        def _run() -> None:
            try:
                self._stats[slot] = worker.run()
            except (DistError, OSError) as exc:
                # Worker-level death (coordinator gone, connection dropped):
                # recorded, but campaign health is judged by the coordinator.
                self._worker_errors.append(exc)

        thread = threading.Thread(
            target=_run, name=f"local-worker-{slot}", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return worker

    def results(
        self, timeout: float | None = 120.0
    ) -> dict[tuple[str, str], CampaignResult]:
        """Wait for the campaign and return the result matrix (see
        :meth:`Coordinator.wait`)."""
        results = self.coordinator.wait(timeout=timeout)
        for thread in self._threads:
            thread.join(timeout=10.0)
        return results

    def worker_stats(self) -> list[WorkerStats | None]:
        """Per-worker lifetime stats (``None`` for workers still running or
        that died before finishing)."""
        return list(self._stats)

    def stop(self) -> None:
        self.coordinator.stop()
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_processes(target: Callable[..., int], arg_tuples) -> list:
    """Start one daemon process per tuple in ``arg_tuples``, each exiting
    with ``target(*args)``; ``target`` is pickled by import path, so it
    must be a module-level function.  SIGINT is ignored in them: the
    parent owns Ctrl-C and stops them with :func:`stop_processes`."""
    procs = []
    try:
        for args in arg_tuples:
            proc = _CONTEXT.Process(
                target=_process_main, args=(target, args), daemon=True
            )
            proc.start()
            procs.append(proc)
    except BaseException:
        stop_processes(procs)
        raise
    return procs


def stop_processes(procs: list, timeout: float = STOP_TIMEOUT_S) -> None:
    """Terminate ``procs`` and join each under one shared deadline,
    killing any that outlive it."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    deadline = time.monotonic() + timeout
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)


def _process_main(target: Callable[..., int], args: tuple) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(target(*args))


def _local_worker(host: str, port: int, cache_dir: str | None) -> int:
    """One ``-j`` worker process: serve leases until the campaign is done."""
    try:
        Worker(host, port, cache_dir=cache_dir).run()
    except DistError:
        return 1  # lost the coordinator: the parent judges the campaign
    return 0


class _LocalCoordinator(Coordinator):
    """Queues ``(workload, tool, done, n)`` after every accepted task, so
    the caller's thread can report progress."""

    def __init__(self, *args, **kwargs) -> None:
        self.accepted: queue.SimpleQueue = queue.SimpleQueue()
        super().__init__(*args, **kwargs)

    def _on_task_done(self, cell) -> None:
        spec = cell.spec
        self.accepted.put(
            (spec.workload, spec.tool_name, len(cell.completed), spec.n)
        )


def run_local_workers(
    specs: list[CampaignSpec],
    workers: int,
    *,
    progress: Callable[[str, str, int, int], None] | None = None,
    checkpoint_dir=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
    lease_timeout: float | None = None,
    cache_dir=None,
) -> dict[tuple[str, str], CampaignResult]:
    """Serve ``specs`` from a loopback coordinator to ``workers`` local
    worker processes (``run_matrix(workers=N)``); returns the result
    matrix in spec order.

    ``progress(workload, tool, done, n)`` runs in the calling thread after
    every accepted task.  When it raises, the run is interrupted, or every
    worker exits early, the coordinator is stopped — which checkpoints
    every unfinished cell — and the workers are then terminated.
    """
    coordinator = _LocalCoordinator(
        specs, port=0,
        lease_timeout=(
            DEFAULT_LEASE_TIMEOUT if lease_timeout is None else lease_timeout
        ),
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        events=events,
    )
    host, port = coordinator.start()
    procs: list = []
    try:
        remaining = sum(
            n - done for done, n in coordinator.cell_progress().values()
        )
        worker_args = (
            host, port, None if cache_dir is None else str(cache_dir)
        )
        procs = start_processes(
            _local_worker, [worker_args] * min(workers, remaining)
        )
        while not coordinator.settled():
            try:
                item = coordinator.accepted.get(timeout=_POLL_S)
            except queue.Empty:
                if (
                    not any(proc.is_alive() for proc in procs)
                    and not coordinator.settled()
                ):
                    raise CampaignError(
                        f"all {len(procs)} local worker processes exited "
                        f"before the campaign finished (exit codes "
                        f"{[proc.exitcode for proc in procs]})"
                    ) from None
                continue
            if progress is not None:
                progress(*item)
        while progress is not None and not coordinator.accepted.empty():
            progress(*coordinator.accepted.get())
        return coordinator.wait()
    finally:
        # Results are in (or the run is abandoned): nothing is left for
        # the workers to deliver, so skip the drain grace.
        coordinator.stop(drain_timeout=0.0)
        stop_processes(procs)

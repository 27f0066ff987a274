"""Multi-process campaign execution.

The paper runs its 44,856 experiments on a cluster, fully subscribing each
node (Appendix A.4).  This runner partitions a campaign's experiment
indices into **chunked sub-slices** (several chunks per worker), submits
them to a process pool, and consumes completions with ``as_completed`` —
so progress callbacks, telemetry events and checkpoints all happen
mid-flight rather than only at the end.  Each worker compiles/profiles its
own tool instance (processes share nothing) and returns a partial
:class:`CampaignResult`; parts are merged **in chunk order** by
:func:`repro.campaign.io.merge_results`, so a parallel campaign is
bit-identical to the sequential one regardless of worker count.

Seeds are derived from the *global* experiment index, which also makes
checkpoint resume trivial: completed indices are simply excluded from the
next run's chunks.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.campaign.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignCheckpoint,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.campaign.events import EventLog
from repro.campaign.io import experiment_event_fields, merge_results
from repro.campaign.results import CampaignResult
from repro.campaign.runner import DEFAULT_SEED, _fresh_result, run_records
from repro.campaign.schedule import (
    PhaseTimes,
    RetainedSchedulers,
    TriggerScheduler,
    resolve_trigger_order,
    uses_scheduler,
)
from repro.errors import CampaignError
from repro.fi.config import FIConfig
from repro.fi.models import resolve_fault_model
from repro.fi.tools import TOOL_CLASSES, FITool
from repro.campaign.classify import Outcome

#: Target number of chunks handed to each worker.  More than one, so that
#: completions trickle in and progress/checkpointing can happen mid-flight;
#: not so many that per-chunk compile/profile overhead dominates.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class SliceTask:
    """Everything a worker process needs to run a slice of experiments.

    Shared by the multi-process runner here and the distributed workers in
    :mod:`repro.dist` — both execute campaign slices through the exact same
    machinery, so every execution mode produces bit-identical results.
    """

    tool_name: str
    source: str
    workload: str
    opt_level: str
    fi_enabled: bool
    fi_funcs: str
    fi_instrs: str
    base_seed: int
    indices: tuple[int, ...]
    keep_records: bool
    opcode_faults: float
    chunk: int
    #: execution engine name (``None`` = environment/default)
    engine: str | None = None
    #: canonical fault-model spec (repro.fi.models); the single-bit default
    #: keeps pickled/JSON tasks from older coordinators valid.
    fault_model: str = "single-bit"
    #: persistent decoded-translation cache directory (``None`` = none)
    cache_dir: str | None = None

    def make_tool(self) -> FITool:
        config = FIConfig(
            enabled=self.fi_enabled, funcs=self.fi_funcs, instrs=self.fi_instrs
        )
        return TOOL_CLASSES[self.tool_name](
            self.source, self.workload, config=config,
            opt_level=self.opt_level, opcode_faults=self.opcode_faults,
            engine=self.engine, fault_model=self.fault_model,
            cache_dir=self.cache_dir,
        )


def runner_for(tool: FITool) -> tuple[FITool, TriggerScheduler | None]:
    """A retainable ``(tool, scheduler)`` pair (no scheduler for the
    per-index path)."""
    return tool, TriggerScheduler(tool) if uses_scheduler(tool) else None


def run_part(
    tool: FITool,
    base_seed: int,
    indices,
    scheduler: TriggerScheduler | None = None,
) -> CampaignResult:
    """Run ``indices`` of a campaign into one partial result.

    Per-experiment records are always collected — the consumer needs them
    to emit ``experiment`` telemetry events and feed write-through result
    sinks (:mod:`repro.resultsdb`) — and strips them after emission when
    the campaign did not ask for ``keep_records``.  This batch's phase and
    scheduler breakdowns ride back on the result (see
    :mod:`repro.campaign.io`) for aggregation.
    """
    result = _fresh_result(tool, len(indices))
    records, phases, scheduler = run_records(
        tool, base_seed, indices, scheduler=scheduler
    )
    for rec in records:
        result.add(rec, keep_record=True)
    result.phase_times = phases.as_dict()
    if scheduler is not None:
        result.scheduler_stats = scheduler.stats.as_dict()
    return result


#: Schedulers a pool process keeps across slices of one campaign; created
#: by :func:`init_pool_process`, so it exists only inside pool processes.
_pool_schedulers: RetainedSchedulers | None = None


def init_pool_process() -> None:
    """``ProcessPoolExecutor`` initializer for slice-running processes."""
    global _pool_schedulers
    _pool_schedulers = RetainedSchedulers()


def run_slice(task: SliceTask) -> CampaignResult:
    """Run one slice of a campaign (usually inside a pool process).

    Consecutive slices of one campaign in the same pool process share a
    retained scheduler, so only the first runs the full golden cursor.
    """
    if _pool_schedulers is None:
        return run_part(task.make_tool(), task.base_seed, task.indices)
    tool, scheduler = _pool_schedulers.get(
        replace(task, indices=(), chunk=0),
        lambda: runner_for(task.make_tool()),
    )
    return run_part(tool, task.base_seed, task.indices, scheduler)


def run_campaign_parallel(
    tool_name: str,
    source: str,
    workload: str,
    n: int,
    workers: int = 2,
    base_seed: int = DEFAULT_SEED,
    config: FIConfig | None = None,
    opt_level: str = "O2",
    keep_records: bool = False,
    opcode_faults: float = 0.0,
    progress: Callable[[int, int], None] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
    chunk_size: int | None = None,
    engine: str | None = None,
    fault_model: str | None = None,
    cache_dir: str | Path | None = None,
) -> CampaignResult:
    """Run ``n`` experiments across ``workers`` processes.

    Produces counts identical to the sequential
    :func:`repro.campaign.run_campaign` with the same ``base_seed`` — the
    full tool configuration (``config``, ``opcode_faults``) is forwarded to
    the workers, so the parallel fault model is exactly the sequential one.

    ``progress(done, n)`` fires after every completed chunk.  With
    ``checkpoint_path``, the merged partial result is atomically persisted
    roughly every ``checkpoint_every`` experiments (and on interruption),
    and an existing checkpoint is resumed by excluding its completed
    indices from the new chunks.

    Fast-engine campaigns are sharded into **contiguous trigger ranges**:
    the parent pre-resolves every remaining experiment's trigger (a pure
    function of its seed), sorts by ``(trigger, index)``, and cuts chunks
    along that order, so each worker's golden cursor sweeps one compact
    window of the timeline.  Results stay keyed by global experiment index
    and the merge accepts out-of-order parts, so the outcome is
    bit-identical to the sequential run.  ``cache_dir`` persists decoded
    translations for every worker process.
    """
    if n <= 0:
        raise CampaignError("campaign needs n >= 1 experiments")
    if workers <= 0:
        raise CampaignError("workers must be positive")
    if checkpoint_every <= 0:
        raise CampaignError("checkpoint_every must be positive")
    if tool_name not in TOOL_CLASSES:
        raise CampaignError(f"unknown tool {tool_name!r}")
    cls = TOOL_CLASSES[tool_name]
    if not 0.0 <= opcode_faults <= 1.0:
        raise CampaignError("opcode_faults must be a probability")
    if opcode_faults and not cls.supports_opcode_faults:
        # Fail in the parent with the same error the sequential runner's
        # tool constructor raises, instead of a pickled worker traceback.
        raise CampaignError(
            f"{cls.name} operates above the instruction encoding and "
            "cannot model OP-code corruption"
        )
    # Same fail-fast rule for the fault model: parse and tool-compatibility
    # errors surface in the parent, and workers get the canonical spec.
    model = resolve_fault_model(fault_model)
    model.check_tool(cls)
    config = config or FIConfig()

    phases = PhaseTimes()
    scheduler_totals: dict[str, int] = {}
    completed: set[int] = set()
    prior: CampaignResult | None = None
    ckpt = try_load_checkpoint(checkpoint_path)
    if ckpt is not None:
        ckpt.matches(
            workload, tool_name, n, base_seed, keep_records,
            fault_model=model.spec,
        )
        completed = set(ckpt.completed)
        prior = ckpt.partial
    remaining = [i for i in range(n) if i not in completed]

    if events is not None:
        events.emit(
            "campaign_start", workload=workload, tool=tool_name, n=n,
            base_seed=base_seed, resumed=len(completed), workers=workers,
            resumed_counts={} if prior is None
            else {o.value: k for o, k in prior.counts.items()},
            fault_model=model.spec,
        )

    parts: dict[int, CampaignResult] = {}

    def _merged() -> CampaignResult | None:
        ordered = ([] if prior is None else [prior])
        ordered.extend(parts[ci] for ci in sorted(parts))
        if not ordered:
            return None
        merged = merge_results(ordered)
        merged.n = n  # n is the campaign size, not just what has finished
        # Chunks complete out of order (and resume reshuffles them); global
        # experiment index restores the sequential runner's record order.
        merged.records.sort(key=lambda rec: rec.index)
        return merged

    def _save() -> None:
        save_checkpoint(
            CampaignCheckpoint(
                workload=workload,
                tool=tool_name,
                n=n,
                base_seed=base_seed,
                keep_records=keep_records,
                completed=set(completed),
                partial=_merged(),
                fault_model=model.spec,
            ),
            checkpoint_path,
        )
        if events is not None:
            events.emit(
                "checkpoint", path=str(checkpoint_path),
                completed=len(completed), n=n,
            )

    def _finish(result: CampaignResult) -> CampaignResult:
        if events is not None:
            events.emit(
                "campaign_finish", workload=workload, tool=tool_name,
                counts={o.value: result.frequency(o) for o in Outcome},
                total_cycles=result.total_cycles,
                total_steps=result.total_steps,
                total_candidates=result.total_candidates,
                golden_output=list(result.golden_output),
                schedule="trigger" if scheduler_totals else "index",
                fault_model=model.spec,
                phases=phases.as_dict(),
                **(
                    {"scheduler": dict(scheduler_totals)}
                    if scheduler_totals else {}
                ),
            )
        return result

    if not remaining:
        # Resuming an already-finished campaign: nothing to run.
        if prior is None:
            raise CampaignError(
                "checkpoint claims completion but holds no partial result"
            )
        return _finish(prior)

    workers = min(workers, len(remaining))
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(len(remaining) / (workers * CHUNKS_PER_WORKER))
        )
    elif chunk_size <= 0:
        raise CampaignError("chunk_size must be positive")
    if len(remaining) > chunk_size:
        order_tool = cls(
            source, workload, config=config, opt_level=opt_level,
            opcode_faults=opcode_faults, engine=engine, fault_model=model,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )
        if uses_scheduler(order_tool):
            # Pre-resolve every remaining experiment's trigger in the parent
            # and re-order the work list along the golden timeline;
            # contiguous chunks of this list are trigger ranges, so each
            # worker's cursor covers one compact window of the run.
            t0 = time.perf_counter()
            remaining = [
                i for _, i in
                resolve_trigger_order(order_tool, base_seed, remaining)
            ]
            phases.translate_s += time.perf_counter() - t0
    chunks = [
        tuple(remaining[lo:lo + chunk_size])
        for lo in range(0, len(remaining), chunk_size)
    ]
    tasks = [
        SliceTask(
            tool_name=tool_name,
            source=source,
            workload=workload,
            opt_level=opt_level,
            fi_enabled=config.enabled,
            fi_funcs=config.funcs,
            fi_instrs=config.instrs,
            base_seed=base_seed,
            indices=indices,
            keep_records=keep_records,
            opcode_faults=opcode_faults,
            chunk=ci,
            engine=engine,
            fault_model=model.spec,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )
        for ci, indices in enumerate(chunks)
    ]

    since_checkpoint = 0

    def _note_done(task: SliceTask, part: CampaignResult) -> None:
        """Fold one finished chunk in: emit telemetry (one ``experiment``
        event per record, then the chunk summary), strip records the
        campaign did not ask to keep, and checkpoint.  Stripping happens
        before the part can reach a checkpoint, so resumed partials match
        the requested ``keep_records``."""
        nonlocal since_checkpoint
        pt = getattr(part, "phase_times", None)
        if pt is not None:
            phases.accumulate(pt)
        sched_stats = getattr(part, "scheduler_stats", None)
        if sched_stats is not None:
            for key, val in sched_stats.items():
                scheduler_totals[key] = scheduler_totals.get(key, 0) + val
        if events is not None:
            for rec in part.records:
                events.emit(
                    "experiment", workload=workload, tool=tool_name,
                    chunk=task.chunk, **experiment_event_fields(rec),
                )
        if not keep_records:
            part.records = []
        parts[task.chunk] = part
        completed.update(task.indices)
        since_checkpoint += len(task.indices)
        if events is not None:
            events.emit(
                "chunk_done", chunk=task.chunk, size=len(task.indices),
                completed=len(completed), n=n,
                counts={o.value: part.frequency(o) for o in Outcome},
            )
            if sched_stats is not None:
                events.emit(
                    "scheduler_stats", workload=workload, tool=tool_name,
                    chunk=task.chunk, **sched_stats,
                )
        if checkpoint_path is not None and since_checkpoint >= checkpoint_every:
            _save()
            since_checkpoint = 0
        if progress is not None:
            progress(len(completed), n)

    if len(tasks) == 1:
        # One chunk: run in-process, skipping pool overhead.
        try:
            part = run_slice(tasks[0])
        except BaseException:
            if checkpoint_path is not None:
                _save()
            raise
        _note_done(tasks[0], part)
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=init_pool_process,
        ) as pool:
            futures = {pool.submit(run_slice, t): t for t in tasks}
            if events is not None:
                for t in tasks:
                    events.emit(
                        "worker_start", chunk=t.chunk, size=len(t.indices)
                    )
            try:
                for fut in as_completed(futures):
                    task = futures[fut]
                    _note_done(task, fut.result())
            except BaseException:
                # Interrupted (or a progress/worker failure): stop handing
                # out new chunks and persist everything that finished.
                for fut in futures:
                    fut.cancel()
                if checkpoint_path is not None:
                    _save()
                raise
    if checkpoint_path is not None and since_checkpoint:
        _save()
    return _finish(_merged())

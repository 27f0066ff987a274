"""Trigger-ordered campaign execution along one golden cursor.

Every fast-engine campaign runs here, in every runner (sequential, ``-j``,
``--dist`` and the campaign service); reference-engine campaigns keep the
from-scratch per-index loop (:func:`repro.campaign.runner.run_experiment`),
which is also the oracle side of every equivalence check.

Relyzer sorts its fault list by dynamic position; ZOFI forks the original
process at the injection point.  This module combines both ideas:

1. **Resolve** every experiment's trigger counter up front (a fault plan is
   a pure function of its seed) and sort the batch by ``(trigger, index)``.
2. **Advance one cursor CPU** monotonically along the golden run with the
   fast engine (:meth:`repro.engine.fast.FastEngine.run_cursor`).  Whenever
   the next block would cross a pending trigger, capture one cheap
   copy-on-write fork (:func:`repro.snapshot.state.capture_snapshot`) at
   the block entry; one fork covers every trigger inside that block.  The
   cursor never rewinds, so the whole batch pays O(one golden run) of
   prefix execution instead of O(sum of per-experiment trigger distances).
3. **Run each faulty tail** from its fork to completion, in trigger order.
4. **Golden rejoin**: the cursor also records full-state sync snapshots at
   interval multiples.  A faulty tail pauses at the same absolute step
   counts (:meth:`~repro.engine.fast.FastEngine.resume_synced`) and, once
   its architectural state (pc, flags, integer registers, bitwise float
   registers, all memory pages) equals the golden state at the same step,
   the rest of the run is *spliced* from the golden suffix instead of
   executed: equal state at equal step count implies identical future
   behaviour, and the tool counters are behaviourally inert once the
   single-shot fault has fired.  Outputs, counts, steps and exit code of a
   spliced result are bit-identical to running the tail out natively.
5. **Golden chain**: those sync states are the only resume mechanism.  A
   scheduler runs the full, validated cursor once and keeps the chain; a
   later batch on the same scheduler restores the nearest chain state whose
   trigger counter is strictly below the batch's first trigger and stops
   the cursor after the batch's last fork.  Runners keep one scheduler per
   campaign spec (:class:`RetainedSchedulers`), so a one-experiment lease
   costs one chain interval of prefix plus its tail, not a golden run.

Bit-identity bar: every :class:`~repro.campaign.results.ExperimentRecord`
field except ``snapshot_hit`` (a fast-path provenance flag) matches the
from-scratch per-index run on the reference engine; ``total_cycles``
matches to float summation order (same bar as the ``-j``/dist runs).
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass

from repro.campaign.classify import classify
from repro.campaign.results import ExperimentRecord
from repro.errors import CampaignError
from repro.fi.tools import TIMEOUT_FACTOR, FITool
from repro.machine.cpu import ExecutionResult
from repro.snapshot.state import (
    PAGE_SIZE,
    CpuSnapshot,
    base_pages,
    capture_snapshot,
    restore_snapshot,
)
from repro.utils.rng import derive_seed

#: Budget of the golden cursor (matches the profiling run's budget).
GOLDEN_BUDGET = 200_000_000

#: Golden-chain density: one sync state roughly every 1/128th of the golden
#: run, floored so tiny workloads don't drown in states.
CHAIN_DENSITY = 128
MIN_CHAIN_INTERVAL = 256

#: Schedulers a process keeps alive (one per campaign spec, LRU).
RETAINED_SCHEDULERS = 8

#: Rejoin-check thinning: check the first few sync points after the fork
#: densely (most convergent runs re-join within one interval), then back
#: off geometrically so divergent runs pay almost nothing.
REJOIN_DENSE = 2
REJOIN_GROWTH = 4
REJOIN_MAX_CHECKS = 8

#: Stop attempting full-memory comparisons for a tail after this many
#: expensive near-misses (registers matched, memory did not).
REJOIN_MAX_MEM_MISSES = 2


@dataclass
class PhaseTimes:
    """Wall-clock breakdown of one campaign's execution phases."""

    translate_s: float = 0.0  #: compile/profile + trigger resolution
    prefix_s: float = 0.0     #: golden cursor execution (minus fork capture)
    fork_s: float = 0.0       #: fork + sync-state snapshot capture
    tail_s: float = 0.0       #: faulty tail execution (fork to completion)
    classify_s: float = 0.0   #: outcome classification

    def as_dict(self) -> dict:
        return {
            "translate_s": round(self.translate_s, 4),
            "prefix_s": round(self.prefix_s, 4),
            "fork_s": round(self.fork_s, 4),
            "tail_s": round(self.tail_s, 4),
            "classify_s": round(self.classify_s, 4),
        }

    def accumulate(self, fields: dict) -> None:
        """Fold another breakdown (e.g. a leased task's) into this one."""
        self.translate_s += fields.get("translate_s", 0.0)
        self.prefix_s += fields.get("prefix_s", 0.0)
        self.fork_s += fields.get("fork_s", 0.0)
        self.tail_s += fields.get("tail_s", 0.0)
        self.classify_s += fields.get("classify_s", 0.0)


@dataclass
class SchedulerStats:
    """Counters behind the ``scheduler_stats`` telemetry event (one batch)."""

    experiments: int = 0
    #: forks captured along the cursor / tails served from one
    forks: int = 0
    fork_hits: int = 0
    #: safety-net fallbacks through the ordinary inject path
    scratch: int = 0
    #: tails spliced onto the golden suffix after provable re-convergence
    rejoins: int = 0
    #: golden-chain states recorded by this batch's cursor
    sync_states: int = 0
    cursor_steps: int = 0
    #: golden-prefix instructions not re-executed thanks to forks
    prefix_steps_saved: int = 0
    #: tail instructions not re-executed thanks to golden rejoin
    tail_steps_saved: int = 0

    def as_dict(self) -> dict:
        return {
            "experiments": self.experiments,
            "forks": self.forks,
            "fork_hits": self.fork_hits,
            "scratch": self.scratch,
            "rejoins": self.rejoins,
            "sync_states": self.sync_states,
            "cursor_steps": self.cursor_steps,
            "prefix_steps_saved": self.prefix_steps_saved,
            "tail_steps_saved": self.tail_steps_saved,
        }

    def accumulate(self, fields: dict) -> None:
        """Fold another scheduler's counters (e.g. a leased task's) into
        this one."""
        for key, val in fields.items():
            if hasattr(self, key):
                setattr(self, key, getattr(self, key) + val)


def uses_scheduler(tool: FITool) -> bool:
    """Whether ``tool``'s campaigns run trigger-ordered along a golden
    cursor (the fast engine) rather than from scratch per index."""
    return hasattr(tool.engine, "run_cursor")


def chain_interval(golden_steps: int) -> int:
    """Steps between two golden-chain states of a run this long."""
    return max(MIN_CHAIN_INTERVAL, golden_steps // CHAIN_DENSITY)


def resolve_trigger_order(
    tool: FITool, base_seed: int, indices
) -> list[tuple[int, int]]:
    """``(trigger, index)`` pairs for a batch, sorted by ``(trigger, index)``.

    Shared by the scheduler and the coordinator's sharder (``-j`` and
    ``--dist``), so every layer agrees on the timeline order.
    """
    pairs = []
    for index in indices:
        seed = derive_seed(base_seed, tool.workload, tool.name, index)
        plan = tool.plan_from_seed(seed)
        pairs.append((plan.target_index, index))
    pairs.sort()
    return pairs


def _pack_fregs(fregs) -> bytes:
    """Bitwise image of the float registers (NaN payloads, signed zeros)."""
    return struct.pack(f"<{len(fregs)}d", *fregs)


class TriggerScheduler:
    """Run batches of experiments in trigger order along one golden cursor.

    :meth:`run_batch` yields :class:`ExperimentRecord` objects in trigger
    order.  The golden chain recorded by the first batch's cursor is kept
    for every later batch of the same (tool, spec); forks, tail CPUs and
    per-batch counters (:attr:`stats`, :attr:`phases`) are not.  Requires
    the fast engine (the cursor's fork stops and the tails' exact-step sync
    pauses are fast-engine features) and a tool with a snapshot trigger
    counter.  One scheduler serves one thread at a time.
    """

    def __init__(self, tool: FITool, events=None) -> None:
        counter = getattr(type(tool), "_SNAPSHOT_COUNTER", None)
        if counter is None:
            raise CampaignError(
                f"{tool.name} does not define a snapshot trigger counter; "
                "the trigger schedule cannot pre-resolve its injection points"
            )
        if not uses_scheduler(tool):
            raise CampaignError(
                f"trigger-ordered campaigns require the fast engine "
                f"(tool is running on {tool.engine.name!r})"
            )
        self.tool = tool
        self.events = events
        self.counter = counter
        self.stats = SchedulerStats()
        self.phases = PhaseTimes()
        #: golden chain: sync states in step order, their trigger counters,
        #: the same states by step count (rejoin references), and the
        #: golden run's steps/counts/exit code — kept across batches
        self._chain: list[CpuSnapshot] = []
        self._chain_counters: list[int] = []
        self._sync_states: dict[int, CpuSnapshot] = {}
        self._g_steps: int | None = None
        self._forks: dict[int, CpuSnapshot] = {}
        self._triggers: list[int] = []
        self._pend_i = 0
        self._prev_capture: CpuSnapshot | None = None
        self._hook_s = 0.0
        #: one pooled CPU serves every tail of a batch (restore is
        #: in-place, so the fast engine's instantiated blocks survive
        #: across experiments); released at batch end
        self._tail_cpu = None
        self._mem_template: bytes | None = None
        #: plan of the tail currently resuming (rejoin gates on its window)
        self._tail_plan = None

    # -- cursor -------------------------------------------------------------

    def _fork_hook(self, cpu, pc: int, upto: int):
        """Capture one fork covering every pending trigger ``<= upto``.

        Called by the cursor at a block entry whose counter extent reaches
        the next pending trigger; the CPU is fully synced and the counter
        is still strictly below every pending trigger, so the snapshot is
        a valid resume point for all of them.
        """
        t0 = time.perf_counter()
        snap = capture_snapshot(cpu, pc, prev=self._prev_capture,
                                base=self._base)
        self._prev_capture = snap
        triggers = self._triggers
        i = self._pend_i
        while i < len(triggers) and triggers[i] <= upto:
            self._forks[triggers[i]] = snap
            i += 1
        self._pend_i = i
        self.stats.forks += 1
        self._hook_s += time.perf_counter() - t0
        return triggers[i] if i < len(triggers) else None

    def _sync_hook(self, cpu, pc: int) -> None:
        """Record one golden-chain state at an interval multiple."""
        t0 = time.perf_counter()
        snap = capture_snapshot(cpu, pc, prev=self._prev_capture,
                                base=self._base)
        self._prev_capture = snap
        self._chain.append(snap)
        self._chain_counters.append(snap.counter(self.counter))
        self._sync_states[snap.steps] = snap
        self.stats.sync_states += 1
        self._hook_s += time.perf_counter() - t0

    def _run_cursor(self) -> None:
        tool = self.tool
        first = self._triggers[0]
        self._hook_s = 0.0
        t0 = time.perf_counter()
        cpu = tool._make_cpu(None)
        if self._g_steps is None:
            self._record_golden(cpu, first)
            start = 0
        else:
            # Resume from the nearest chain state strictly below the first
            # trigger (injection fires when the counter *reaches* the
            # trigger, so a state at the trigger would already be past it).
            i = bisect_left(self._chain_counters, first)
            resume = self._chain[i - 1] if i else None
            pc = None
            if resume is not None:
                restore_snapshot(cpu, resume)
                pc = resume.pc
            self._prev_capture = resume
            start = cpu.steps
            tool.engine.run_cursor(
                cpu, budget=GOLDEN_BUDGET, counter=self.counter,
                first_stop=first, fork_hook=self._fork_hook,
                pc=pc, until_forked=True,
            )
        self.stats.cursor_steps = cpu.steps - start
        # Break the CPU <-> instantiated-block cycle now rather than leave
        # the closures (and the CPU's memory) to the cycle collector.
        cpu._fast_ctx = None
        wall = time.perf_counter() - t0
        self.phases.fork_s += self._hook_s
        self.phases.prefix_s += wall - self._hook_s
        self._prev_capture = None  # release the capture chain head

    def _record_golden(self, cpu, first: int) -> None:
        """Run the full golden cursor once, recording the chain, and check
        it against the profiling run."""
        tool = self.tool
        profile = tool.profile
        self._base = base_pages(tool.program)
        self._interval = chain_interval(profile.steps)
        self._chain, self._chain_counters, self._sync_states = [], [], {}
        result = tool.engine.run_cursor(
            cpu,
            budget=GOLDEN_BUDGET,
            counter=self.counter,
            first_stop=first,
            fork_hook=self._fork_hook,
            syncs=list(range(self._interval, profile.steps, self._interval)),
            sync_hook=self._sync_hook,
        )
        problem = None
        if result.trap is not None or result.exit_status != 0:
            problem = (
                f"failed (trap={result.trap}, exit={result.exit_code})"
            )
        elif tuple(result.output) != profile.golden_output:
            problem = (
                "diverged from the profiling run — nondeterministic workload?"
            )
        elif result.steps != profile.steps:
            problem = f"ran {result.steps} steps, profile says {profile.steps}"
        if problem is not None:
            self._chain, self._chain_counters, self._sync_states = [], [], {}
            raise CampaignError(
                f"{tool.name}: golden cursor run of {tool.workload!r} "
                f"{problem}"
            )
        self._g_steps = result.steps
        self._g_counts = result.counts
        self._g_exit = result.exit_code

    # -- golden rejoin ------------------------------------------------------

    def _tail_syncs(self, fork_steps: int) -> list[int]:
        """Thinned schedule of rejoin checkpoints for a tail forked at
        ``fork_steps``: the first :data:`REJOIN_DENSE` interval multiples
        after the fork, then geometrically growing strides."""
        interval = self._interval
        k = fork_steps // interval + 1
        out: list[int] = []
        dense = REJOIN_DENSE
        stride = 1
        while k * interval < self._g_steps and len(out) < REJOIN_MAX_CHECKS:
            out.append(k * interval)
            if dense > 0:
                dense -= 1
                k += 1
            else:
                stride *= REJOIN_GROWTH
                k += stride
        return out

    def _on_sync(self, cpu, pc: int) -> bool:
        """Rejoin test at one sync point of a faulty tail.

        Returns True (stop; splice) only when the tail's full architectural
        state equals the golden state at the same absolute step count.
        Before the fault has fired the tail *is* the golden run, so a match
        is vacuous and splicing would skip the injection — never stop then.
        Likewise while a dwell window is still open (stuck-at models): the
        fault keeps re-applying, so the tail may not rejoin — and PINFI may
        not be treated as detached — until the window closes.
        """
        if cpu.fault is None:
            return False
        plan = self._tail_plan
        if plan is not None and plan.last_index > plan.target_index:
            count = getattr(cpu, "_" + self.counter)
            if count < plan.last_index:
                return False
        if self._mem_misses >= REJOIN_MAX_MEM_MISSES:
            return False
        ref = self._sync_states.get(cpu.steps)
        if ref is None:
            return False
        if pc != ref.pc or cpu.flags != ref.flags:
            return False
        if tuple(cpu.iregs) != ref.iregs:
            return False
        if _pack_fregs(cpu.fregs) != _pack_fregs(ref.fregs):
            return False
        # bytes-vs-bytes slice compares hit CPython's memcmp fast path
        # (memoryview comparison is a per-element loop — far slower).
        mem = bytes(cpu.mem)
        pages = ref.pages
        for i, clean in enumerate(self._base):
            off = i * PAGE_SIZE
            if mem[off:off + PAGE_SIZE] != pages.get(i, clean):
                self._mem_misses += 1
                return False
        self._rejoin_ref = ref
        return True

    def _splice(self, cpu, ref: CpuSnapshot) -> ExecutionResult:
        """Complete a re-converged tail from the golden suffix.

        The tail's state at step ``S = ref.steps`` is bitwise equal to the
        golden run's, so its remaining execution is the golden remainder:
        counts gain the golden per-pc deltas past ``S``, output gains the
        golden lines past ``S``, and the run ends at the golden step count
        with the golden exit code and no trap.  PINFI's frozen attach-time
        accounting (``counts_attached``, ``attached_candidates``) is
        untouched — the fault always fires (and PINFI detaches) before a
        rejoin is admissible.
        """
        golden_output = self.tool.profile.golden_output
        result = ExecutionResult()
        result.trap = None
        result.trap_pc = -1
        result.exit_code = self._g_exit
        result.output = list(cpu.output) + list(golden_output[len(ref.output):])
        result.steps = self._g_steps
        result.fault = cpu.fault
        g_counts = self._g_counts
        ref_counts = ref.counts
        result.counts = [
            c + g_counts[i] - ref_counts[i] for i, c in enumerate(cpu.counts)
        ]
        result.counts_attached = cpu.counts_attached
        result.attached_candidates = cpu.attached_candidates
        self.stats.tail_steps_saved += self._g_steps - ref.steps
        return result

    # -- tails --------------------------------------------------------------

    def _tail_cpu_for(self, plan):
        """The pooled tail CPU, reset to pristine state and armed with
        ``plan``.

        ``restore_snapshot`` overwrites registers, counters, output and
        the fork's dirty pages in place; this reset covers everything it
        assumes or does not touch — pristine memory for the untouched
        pages, no fired fault, and the tool's plan re-armed.
        """
        cpu = self._tail_cpu
        if cpu is None:
            cpu = self.tool._make_cpu(plan)
            self._tail_cpu = cpu
            self._mem_template = bytes(cpu.mem)
            return cpu
        cpu.mem[:] = self._mem_template
        cpu.fault = None
        counter = self.counter
        if counter == "refine_count":
            cpu.arm_refine(plan)
        elif counter == "pin_count":
            cpu.attach_pinfi(plan)
        else:
            cpu.arm_llfi(plan)
        return cpu

    def _run_tail(self, trigger: int, index: int, seed: int) -> ExperimentRecord:
        tool = self.tool
        fork = self._forks.get(trigger)
        t0 = time.perf_counter()
        if fork is None:
            # Safety net: the cursor ended without covering this trigger
            # (should not happen for triggers within the candidate count);
            # fall back to the ordinary injection path.
            self.stats.scratch += 1
            run = tool.inject(seed)
            result = run.result
            cycles = run.cycles
            served = False
        else:
            plan = tool.plan_from_seed(seed)
            self._tail_plan = plan
            cpu = self._tail_cpu_for(plan)
            restore_snapshot(cpu, fork)
            self._mem_misses = 0
            self._rejoin_ref = None
            result = tool.engine.resume_synced(
                cpu, fork.pc, tool.profile.steps * TIMEOUT_FACTOR,
                self._tail_syncs(fork.steps), self._on_sync,
            )
            if result is None:
                result = self._splice(cpu, self._rejoin_ref)
                self.stats.rejoins += 1
            cycles = tool._cycles(cpu, result)
            self.stats.fork_hits += 1
            self.stats.prefix_steps_saved += fork.steps
            served = True
        t1 = time.perf_counter()
        outcome = classify(result, tool.profile.golden_output)
        t2 = time.perf_counter()
        self.phases.tail_s += t1 - t0
        self.phases.classify_s += t2 - t1
        return ExperimentRecord(
            seed=seed,
            outcome=outcome,
            cycles=cycles,
            steps=result.steps,
            trap=result.trap,
            exit_code=result.exit_code,
            fault=result.fault,
            index=index,
            engine=tool.engine.name,
            snapshot_hit=served,
        )

    # -- batch driver -------------------------------------------------------

    def run_batch(self, base_seed: int, indices):
        """Yield one :class:`ExperimentRecord` per index, in trigger order.

        Resets :attr:`stats` and :attr:`phases` to this batch's counters
        before returning the record iterator.  The first yield happens only
        after the cursor has forked for every trigger, so a consumer
        checkpointing between yields loses at most the cursor on
        interruption — never a completed experiment.
        """
        self.stats = SchedulerStats()
        self.phases = PhaseTimes()
        return self._batch(base_seed, list(indices))

    def _batch(self, base_seed: int, indices: list[int]):
        tool = self.tool
        if not indices:
            return
        t0 = time.perf_counter()
        ordered = resolve_trigger_order(tool, base_seed, indices)
        self.phases.translate_s += time.perf_counter() - t0
        self.stats.experiments += len(ordered)

        self._triggers = sorted({trigger for trigger, _ in ordered})
        self._pend_i = 0
        users: dict[int, int] = {}
        for trigger, _ in ordered:
            users[trigger] = users.get(trigger, 0) + 1
        try:
            self._run_cursor()
            self._emit_stats()
            for trigger, index in ordered:
                seed = derive_seed(base_seed, tool.workload, tool.name, index)
                yield self._run_tail(trigger, index, seed)
                users[trigger] -= 1
                if not users[trigger]:
                    # Every experiment at this trigger is done; release the
                    # fork (page bytes shared with the chain survive).
                    self._forks.pop(trigger, None)
            self._emit_stats()
        finally:
            self._release()

    def _emit_stats(self) -> None:
        if self.events is not None:
            self.events.emit(
                "scheduler_stats", workload=self.tool.workload,
                tool=self.tool.name, **self.stats.as_dict(),
            )

    def _release(self) -> None:
        """Drop everything but the golden chain between batches."""
        self._forks.clear()
        self._prev_capture = None
        self._tail_plan = None
        if self._tail_cpu is not None:
            self._tail_cpu._fast_ctx = None
            self._tail_cpu = None
            self._mem_template = None


class RetainedSchedulers:
    """LRU of ``(tool, scheduler)`` pairs, one per campaign spec.

    Workers serve many batches of the same campaign; keeping the scheduler
    keeps its golden chain, so only the first batch runs the full cursor.
    Each worker (thread or process) owns its own instance.
    """

    def __init__(self, capacity: int = RETAINED_SCHEDULERS) -> None:
        self.capacity = capacity
        self._lru: OrderedDict = OrderedDict()

    def get(self, key, build):
        """The retained entry for ``key``, built by ``build()`` if absent."""
        entry = self._lru.pop(key, None)
        if entry is None:
            entry = build()
        self._lru[key] = entry
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return entry

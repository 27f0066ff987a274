"""Span tracer that wraps the public functions of each ``repro`` layer from
outside the program.

Wrappers are installed on the names at their call-site modules (e.g.
``repro.backend.compiler.compile_source``, not ``repro.frontend``'s own
binding) and on class attributes (``TranslationCache.translation_for``).
A span records name, start, end and parent; spans stay in memory until the
run ends.  Stacks are per thread, because service workers run in threads.
A span's self time is its duration minus its children's.

A target a later change has deleted is skipped with a warning: its layer's
metrics read 0 and ``trace.missing_targets`` counts it, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    def __init__(self, sample: dict[tuple[str, str], set[int]] | None = None):
        #: finished spans: [name, start, end, parent span or None]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: (workload, tool) -> golden output seen by the profile run
        self.goldens: dict[tuple[str, str], list[str]] = {}
        #: (workload, tool) -> global indices whose records are kept
        self.sample = sample or {}
        self.records: dict[tuple[str, str, int], dict] = {}
        #: events of interest, by (event, workload, tool, chunk/task)
        self.events: dict[tuple, dict] = {}
        #: campaign id -> when ``ServiceClient.submit`` returned
        self.submitted: dict[int, float] = {}
        self.missing: list[str] = []
        self.tls = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] += value

    def stack(self) -> list:
        stack = getattr(self.tls, "stack", None)
        if stack is None:
            stack = self.tls.stack = []
        return stack

    def wrap(self, name: str | None, fn: Callable, hook: "Hook | None"):
        """``fn`` timed as span ``name`` (``None``: hooks only, no span)."""
        tracer = self
        clock = time.perf_counter
        before = hook.before if hook else None
        after = hook.after if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            if name is None:
                result = fn(*args, **kwargs)
                if after:
                    after(tracer, result, args, kwargs, state, None)
                return result
            stack = tracer.stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                tracer.spans.append(span)
            if after:
                after(tracer, result, args, kwargs, state, span)
            return result

        return traced

    def install(self, targets: list["Target"]) -> None:
        for target in targets:
            try:
                owner, attr, raw = _resolve(target.path)
            except (ImportError, AttributeError) as exc:
                self.missing.append(target.path)
                print(
                    f"# e2ebench: warning: layer {target.span or 'hook'} "
                    f"target {target.path} is absent ({exc}); its metrics "
                    "read 0",
                    file=sys.stderr,
                )
                continue
            if isinstance(raw, functools.cached_property):
                new = functools.cached_property(
                    self.wrap(target.span, raw.func, target.hook)
                )
                new.__set_name__(owner, attr)
            else:
                new = self.wrap(target.span, raw, target.hook)
            setattr(owner, attr, new)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[0]] += span[2] - span[1] - children[id(span)]
        return out

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` inside at least one root span of any
        thread (the wall time the trace accounts for)."""
        roots = sorted(
            (max(s[1], start), min(s[2], end))
            for s in self.spans if s[3] is None
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in roots:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total


def _resolve(path: str):
    module, _, attr_path = path.partition(":")
    owner = importlib.import_module(module)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = inspect.getattr_static(owner, attr)
    return owner, attr, raw


@dataclass(frozen=True)
class Hook:
    #: ``before(tracer, args, kwargs) -> state``
    before: Callable | None = None
    #: ``after(tracer, result, args, kwargs, state, span)``
    after: Callable | None = None


@dataclass(frozen=True)
class Target:
    span: str | None
    path: str
    hook: Hook | None = None


def _count(key: str) -> Hook:
    return Hook(after=lambda t, r, a, k, s, span: t.add(key))


def _cpu_steps(t, args, kwargs):
    return args[1].steps


def _sim_insts(t, result, args, kwargs, before, span):
    steps = getattr(result, "steps", None)
    if steps is None:
        steps = args[1].steps
    t.add("machine.sim_insts", steps - before)


_ENGINE = Hook(before=_cpu_steps, after=_sim_insts)


def _compile_stats(t, binary, args, kwargs, state, span):
    stats = binary.meta.get("stats")
    if stats is not None:
        t.add("irpasses.ir_insts", stats.ir_instructions)
        t.add("backend.machine_insts", stats.machine_instructions)
        t.add("backend.spilled_vregs", stats.spilled_vregs)


def _profile(t, profile, args, kwargs, state, span):
    tool = args[0]
    t.add("fi.golden_steps", profile.steps)
    t.goldens[(tool.workload, tool.name)] = list(profile.golden_output)


def _cell_host(tool_of: Callable) -> Hook:
    def after(t, result, args, kwargs, state, span):
        t.add(f"host.{tool_of(args)}", span[2] - span[1])

    return Hook(after=after)


def _keep_record(t, args, kwargs):
    result, record = args[0], args[1]
    key = (result.workload, result.tool)
    if record.index in t.sample.get(key, ()):
        t.records[(*key, record.index)] = {
            "workload": result.workload, "tool": result.tool,
            "index": record.index, "seed": record.seed,
            "outcome": getattr(record.outcome, "value", str(record.outcome)),
            "steps": record.steps, "trap": record.trap,
            "exit_code": record.exit_code,
        }


def _event(t, result, args, kwargs, state, span):
    event = args[1] if len(args) > 1 else kwargs.get("event")
    if event in ("snapshot_stats", "scheduler_stats"):
        key = (
            event, kwargs.get("workload"), kwargs.get("tool"),
            kwargs.get("chunk"), kwargs.get("task"),
        )
        with t._lock:
            t.events[key] = dict(kwargs)


def _sink_emit(t, args, kwargs):
    if (args[1] if len(args) > 1 else kwargs.get("event")) == "experiment":
        t.add("resultsdb.rows")


def _lease_before(t, args, kwargs):
    if getattr(t.tls, "idle_since", None) is None:
        t.tls.idle_since = time.perf_counter()


def _lease_after(t, message, args, kwargs, state, span):
    kind = message.get("type") if isinstance(message, dict) else None
    if kind == "done":
        t.tls.idle_since = None
    elif kind != "wait":
        t.add("dist.leases")
        t.add("dist.lease_wait_s", time.perf_counter() - t.tls.idle_since)
        t.tls.idle_since = None


def _completed(t, ack, args, kwargs, state, span):
    if isinstance(ack, dict) and ack.get("duplicate"):
        t.add("dist.duplicates")


def _submitted(t, cid, args, kwargs, state, span):
    t.submitted[cid] = span[2]


def _queue_state(t, result, args, kwargs, state, span):
    cid = args[1] if len(args) > 1 else kwargs.get("campaign_id")
    new = args[2] if len(args) > 2 else kwargs.get("state")
    if new == "running" and cid in t.submitted:
        t.add("service.queue_wait_s", time.perf_counter() - t.submitted[cid])


_TAIL = "repro.engine.fast:FastEngine"
_SNAP = "repro.snapshot.engine"

#: Every wrap target, by layer.  Span names are the layer metric stems.
TARGETS = [
    Target("frontend", "repro.backend.compiler:compile_source",
           _count("frontend.calls")),
    Target("irpasses", "repro.backend.compiler:optimize_module",
           _count("irpasses.calls")),
    Target("backend", "repro.backend.compiler:compile_ir",
           Hook(after=_compile_stats)),
    Target("backend", "repro.backend.compiler:verify_module"),
    Target("fi.instrument", "repro.fi.tools:refine_instrument",
           Hook(after=lambda t, r, a, k, s, span: t.add("fi.sites", r))),
    Target("fi.instrument", "repro.fi.tools:llfi_instrument",
           Hook(after=lambda t, r, a, k, s, span: t.add("fi.sites", r))),
    Target("fi.profile", "repro.fi.tools:FITool.profile", Hook(after=_profile)),
    Target("machine.load", "repro.fi.tools:load_binary"),
    Target("engine.translate",
           "repro.engine.cache:TranslationCache.translation_for",
           _count("engine.translate_calls")),
    Target("engine.translate", "repro.engine.cache:Translation.__init__",
           _count("engine.translate_misses")),
    Target("engine.suffix", "repro.engine.cache:Translation.add_suffix",
           _count("engine.suffix_calls")),
    Target("engine.run", f"{_TAIL}.run", _ENGINE),
    Target("engine.tail", f"{_TAIL}.resume", _ENGINE),
    Target("engine.tail", f"{_TAIL}.resume_synced", _ENGINE),
    Target("engine.cursor", f"{_TAIL}.run_cursor", _ENGINE),
    Target("snapshot.capture", f"{_SNAP}:capture_snapshot",
           _count("snapshot.captures")),
    Target("snapshot.capture", "repro.campaign.schedule:capture_snapshot",
           _count("snapshot.captures")),
    Target("snapshot.restore", f"{_SNAP}:restore_snapshot"),
    Target("snapshot.restore", "repro.campaign.schedule:restore_snapshot"),
    Target("snapshot.inject", f"{_SNAP}:SnapshotEngine.inject"),
    Target("snapshot.golden", f"{_SNAP}:SnapshotEngine.golden"),
    Target("campaign", "repro.campaign.runner:run_campaign",
           _cell_host(lambda args: args[0].name)),
    Target("campaign.classify", "repro.campaign.runner:classify"),
    Target("campaign.classify", "repro.campaign.schedule:classify"),
    Target("campaign.resolve",
           "repro.campaign.schedule:resolve_trigger_order"),
    Target("campaign.checkpoint", "repro.campaign.runner:save_checkpoint",
           _count("campaign.checkpoints")),
    Target("campaign.checkpoint", "repro.campaign.parallel:save_checkpoint",
           _count("campaign.checkpoints")),
    Target("campaign.checkpoint", "repro.dist.coordinator:save_checkpoint",
           _count("campaign.checkpoints")),
    Target("campaign.slice", "repro.dist.worker:Worker._run_task",
           _cell_host(lambda args: args[1].tool_name)),
    Target(None, "repro.campaign.results:CampaignResult.add",
           Hook(before=_keep_record)),
    Target(None, "repro.campaign.events:EventLog.emit", Hook(after=_event)),
    Target("resultsdb.sink", "repro.resultsdb.ingest:DatabaseSink.emit",
           Hook(before=_sink_emit)),
    Target("resultsdb.ingest", "repro.resultsdb.ingest:DatabaseSink.flush"),
    Target("resultsdb.ingest", "repro.resultsdb:ingest_result"),
    Target("dist.lease", "repro.dist.client:CoordinatorClient.request_task",
           Hook(before=_lease_before, after=_lease_after)),
    Target("dist.complete", "repro.dist.client:CoordinatorClient.complete",
           Hook(after=_completed)),
    Target("dist.heartbeat", "repro.dist.client:CoordinatorClient.heartbeat",
           _count("dist.heartbeats")),
    Target("service.submit", "repro.service.client:ServiceClient.submit",
           Hook(after=_submitted)),
    Target(None, "repro.service.queue:CampaignQueue.set_state",
           Hook(after=_queue_state)),
    Target("service.validate", "repro.service.validate:validate_results"),
    Target("service.fetch", "repro.service.client:ServiceClient.fetch"),
]

#: metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "frontend.self_s": "frontend",
    "irpasses.self_s": "irpasses",
    "backend.self_s": "backend",
    "fi.instrument_self_s": "fi.instrument",
    "fi.profile_self_s": "fi.profile",
    "machine.load_self_s": "machine.load",
    "engine.translate_self_s": "engine.translate",
    "engine.suffix_self_s": "engine.suffix",
    "engine.run_self_s": "engine.run",
    "engine.cursor_self_s": "engine.cursor",
    "engine.tail_self_s": "engine.tail",
    "snapshot.capture_self_s": "snapshot.capture",
    "snapshot.restore_self_s": "snapshot.restore",
    "snapshot.inject_self_s": "snapshot.inject",
    "snapshot.golden_self_s": "snapshot.golden",
    "campaign.self_s": "campaign",
    "campaign.classify_self_s": "campaign.classify",
    "campaign.resolve_self_s": "campaign.resolve",
    "campaign.checkpoint_self_s": "campaign.checkpoint",
    "campaign.slice_self_s": "campaign.slice",
    "resultsdb.sink_self_s": "resultsdb.sink",
    "resultsdb.ingest_self_s": "resultsdb.ingest",
    "dist.complete_self_s": "dist.complete",
    "service.validate_self_s": "service.validate",
    "service.fetch_self_s": "service.fetch",
}

#: metric -> counter, summed straight from the hooks
COUNTER_METRICS = (
    "frontend.calls", "irpasses.calls", "irpasses.ir_insts",
    "backend.machine_insts", "backend.spilled_vregs", "fi.sites",
    "fi.golden_steps", "machine.sim_insts", "engine.translate_calls",
    "engine.translate_misses", "engine.suffix_calls", "snapshot.captures",
    "campaign.checkpoints", "resultsdb.rows", "dist.lease_wait_s",
    "dist.leases", "dist.heartbeats", "dist.duplicates",
    "service.queue_wait_s",
)

#: metric -> (event, field): counters the campaign's own telemetry events
#: carry (``SnapshotStats`` / ``SchedulerStats``); 0 where no event has them
EVENT_METRICS = {
    "campaign.snapshot_hits": ("snapshot_stats", "hits"),
    "campaign.snapshot_misses": ("snapshot_stats", "misses"),
    "campaign.snapshot_insts_skipped": (
        "snapshot_stats", "instructions_skipped"),
    "campaign.scheduler_forks": ("scheduler_stats", "forks"),
    "campaign.scheduler_fork_hits": ("scheduler_stats", "fork_hits"),
    "campaign.scheduler_rejoins": ("scheduler_stats", "rejoins"),
    "campaign.scheduler_prefix_steps_saved": (
        "scheduler_stats", "prefix_steps_saved"),
}


def layer_metrics(tracer: Tracer, wall_s: float, start: float, end: float,
                  csv_cycles: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything but the overhead,
    which needs the untraced runs)."""
    self_s = tracer.self_times()
    out = {m: self_s.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
    for name in COUNTER_METRICS:
        out[name] = tracer.counters.get(name, 0)
    for name, (event, field) in EVENT_METRICS.items():
        out[name] = sum(
            fields.get(field, 0) or 0
            for key, fields in tracer.events.items() if key[0] == event
        )
    engine_s = sum(self_s.get(s, 0.0)
                   for s in ("engine.run", "engine.tail", "engine.cursor"))
    sim = out["machine.sim_insts"]
    out["engine.host_ns_per_sim_inst"] = engine_s * 1e9 / sim if sim else 0.0
    host = {t: tracer.counters.get(f"host.{t}", 0.0)
            for t in ("LLFI", "REFINE", "PINFI")}
    for tool in ("llfi", "refine"):
        name = tool.upper()
        out[f"fi.{tool}_over_pinfi_host"] = _ratio(host[name], host["PINFI"])
        out[f"fi.{tool}_over_pinfi_cycles"] = _ratio(
            csv_cycles.get(name, 0.0), csv_cycles.get("PINFI", 0.0))
    out["trace.wall_s"] = wall_s
    out["trace.unaccounted_frac"] = (
        (wall_s - tracer.covered(start, end)) / wall_s if wall_s else 0.0)
    out["trace.missing_targets"] = len(tracer.missing)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0

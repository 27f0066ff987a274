"""Trigger-ordered scheduler tests.

Every fast-engine campaign runs trigger-ordered along one golden cursor;
the reference engine runs each index from scratch.  The acceptance bar
everywhere is *bit-identical to the from-scratch reference run*: every
record a campaign produces — seed, outcome, cycles, steps, trap, fault
coordinates — must match exactly, however the experiments were batched.
"""

import pytest

from repro.campaign import (
    EventLog,
    TriggerScheduler,
    make_tool,
    read_events,
    resolve_trigger_order,
    run_campaign,
    run_matrix,
)
from repro.campaign.io import result_to_dict
from repro.campaign.schedule import MIN_CHAIN_INTERVAL, chain_interval
from repro.errors import CampaignError
from repro.fi.models import MODEL_ORDER
from repro.fi.tools import TOOL_CLASSES
from repro.testing.oracles import (
    check_scheduler_equivalence,
    check_workload_scheduler_equivalence,
)
from repro.workloads.registry import workload_sources

from tests.conftest import DEMO_SOURCE

N = 24
SEED = 0xC0FFEE


def _reference(tool_name="REFINE", n=N):
    """The oracle side: every index from scratch on the reference engine."""
    return run_campaign(
        make_tool(tool_name, DEMO_SOURCE, "demo", engine="reference"),
        n, SEED, keep_records=True,
    )


def _assert_equivalent(result, baseline):
    """Bit-identity bar for reordered campaigns: every serialized field
    exact, except the provenance fields ``engine`` and ``snapshot_hit``
    and ``total_cycles`` (accumulated in completion order, so reordering
    shifts the float summation — same bar as the parallel runner)."""
    a, b = result_to_dict(result), result_to_dict(baseline)
    for data in (a, b):
        for rec in data.get("records", ()):
            rec.pop("snapshot_hit", None)
            rec.pop("engine", None)
    assert a.pop("total_cycles") == pytest.approx(b.pop("total_cycles"))
    assert a == b


def _record_key(r):
    return (
        r.index, r.seed, r.outcome, r.cycles, r.steps, r.trap, r.exit_code,
        None if r.fault is None else
        (r.fault.pc, r.fault.dynamic_index, r.fault.operand_desc, r.fault.bit,
         r.fault.value_before, r.fault.value_after),
    )


def _records_key(result):
    return [_record_key(r) for r in result.records]


class TestValidation:
    def test_scheduler_requires_the_fast_engine(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo", engine="reference")
        with pytest.raises(CampaignError, match="fast engine"):
            TriggerScheduler(tool)

    @pytest.mark.parametrize("tool_name", sorted(TOOL_CLASSES))
    def test_every_tool_has_a_counter(self, tool_name):
        assert TOOL_CLASSES[tool_name]._SNAPSHOT_COUNTER in (
            "refine_count", "pin_count", "llfi_count",
        )


class TestTriggerOrder:
    def test_order_is_sorted_by_trigger_and_deterministic(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        ordered = resolve_trigger_order(tool, SEED, list(range(N)))
        assert sorted(i for _, i in ordered) == list(range(N))
        triggers = [t for t, _ in ordered]
        assert triggers == sorted(triggers)
        assert ordered == resolve_trigger_order(tool, SEED, list(range(N)))

    def test_cursor_never_rewinds(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sched = TriggerScheduler(tool)
        seen = []
        for rec in sched.run_batch(SEED, list(range(N))):
            assert rec.fault is None or seen == sorted(seen)
            if rec.fault is not None:
                seen.append(rec.fault.dynamic_index)
        assert seen == sorted(seen)


class TestSequentialEquivalence:
    @pytest.mark.parametrize("tool_name", sorted(TOOL_CLASSES))
    def test_demo_bit_identical(self, tool_name):
        reference = _reference(tool_name)
        trigger = run_campaign(
            make_tool(tool_name, DEMO_SOURCE, "demo"), N, SEED,
            keep_records=True,
        )
        assert _records_key(trigger) == _records_key(reference)
        _assert_equivalent(trigger, reference)

    # The tier-1 smoke slice of the equivalence matrix: two real
    # workloads, every tool, one batch and several, bit-identical to the
    # from-scratch reference runs.
    @pytest.mark.parametrize("workload", ["EP", "CG"])
    def test_workload_smoke(self, workload):
        divergence = check_workload_scheduler_equivalence(workload, n=6)
        assert divergence is None, divergence.describe()


class TestRetainedScheduler:
    """The same experiments run as several batches on one retained
    scheduler — in trigger order, in reverse, and with one batch requeued —
    must equal the reference record for record, for every tool and every
    registered fault model."""

    @pytest.mark.parametrize("fault_model", MODEL_ORDER)
    def test_multi_batch_bit_identical(self, fault_model):
        divergence = check_scheduler_equivalence(
            DEMO_SOURCE, "demo", n=12, fault_model=fault_model, batches=3,
        )
        assert divergence is None, divergence.describe()

    def test_later_batches_resume_from_the_golden_chain(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sched = TriggerScheduler(tool)
        order = [i for _, i in resolve_trigger_order(tool, SEED, range(N))]
        first = list(sched.run_batch(SEED, order[:N // 2]))
        first_stats = sched.stats.as_dict()
        assert first_stats["experiments"] == N // 2
        assert first_stats["sync_states"] > 0
        assert first_stats["cursor_steps"] == tool.profile.steps

        second = list(sched.run_batch(SEED, order[N // 2:]))
        stats = sched.stats.as_dict()
        # Per-batch counters: nothing carried over from the first batch.
        assert stats["experiments"] == N - N // 2
        assert stats["sync_states"] == 0
        # The cursor restarted from a chain state and stopped at the last
        # fork instead of re-running the golden run from step 0.
        assert 0 < stats["cursor_steps"] < tool.profile.steps
        assert all(rec.snapshot_hit for rec in first + second)

        reference = {r.index: r for r in _reference().records}
        for rec in first + second:
            assert _record_key(rec) == _record_key(reference[rec.index])

    def test_chain_interval_scales_with_golden_steps(self):
        assert chain_interval(128_000) == 1000
        assert chain_interval(10 * 128_000) == 10_000

    def test_chain_interval_floor_for_tiny_workloads(self):
        assert chain_interval(100) == MIN_CHAIN_INTERVAL
        assert chain_interval(0) == MIN_CHAIN_INTERVAL

    def test_failed_golden_run_keeps_no_chain(self, monkeypatch):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sched = TriggerScheduler(tool)
        tool.profile  # noqa: B018 - profile before perturbing it
        monkeypatch.setattr(tool.profile, "steps", tool.profile.steps + 1)
        with pytest.raises(CampaignError, match="golden cursor"):
            list(sched.run_batch(SEED, range(4)))
        assert sched._chain == [] and sched._g_steps is None


@pytest.mark.slow
class TestFullEquivalenceMatrix:
    """The paper-scale 14-workload x 3-tool matrix (CI runs it nightly)."""

    @pytest.mark.parametrize("workload", sorted(dict(workload_sources())))
    def test_workload(self, workload):
        divergence = check_workload_scheduler_equivalence(workload, n=12)
        assert divergence is None, divergence.describe()


class TestTelemetry:
    def test_finish_event_carries_schedule_phases_and_stats(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        log = EventLog(log_path)
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        run_campaign(tool, N, SEED, events=log)
        log.close()
        events = read_events(log_path)
        finish = [e for e in events if e["event"] == "campaign_finish"]
        assert len(finish) == 1
        assert finish[0]["schedule"] == "trigger"
        phases = finish[0]["phases"]
        assert set(phases) == {
            "translate_s", "prefix_s", "fork_s", "tail_s", "classify_s"
        }
        scheduler = finish[0]["scheduler"]
        assert scheduler["experiments"] == N
        assert scheduler["forks"] >= 1
        stats = [e for e in events if e["event"] == "scheduler_stats"]
        assert stats, "scheduler_stats events missing"
        # Sequential scheduler_stats are cumulative: the last one matches
        # the totals the finish event reports.
        assert all(
            stats[-1][k] == scheduler[k] for k in scheduler
        )

    def test_index_schedule_reports_phases_too(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        log = EventLog(log_path)
        run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo", engine="reference"),
            6, SEED, events=log,
        )
        log.close()
        finish = [
            e for e in read_events(log_path) if e["event"] == "campaign_finish"
        ][0]
        assert finish["schedule"] == "index"
        assert finish["phases"]["tail_s"] > 0.0
        assert "scheduler" not in finish


class _Kill(Exception):
    """Injected 'job killed' signal raised from a progress callback."""


class TestCheckpointResume:
    def test_kill_and_resume_trigger_order(self, tmp_path):
        """A trigger-ordered campaign killed mid-flight resumes from the
        completed-index set and finishes bit-identical to the from-scratch
        reference run."""
        path = tmp_path / "c.json"
        baseline = _reference()

        killed_after = N // 3

        def _bomb(done, total):
            if done >= killed_after:
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo"),
                N, SEED, keep_records=True,
                checkpoint_path=path, checkpoint_every=4, progress=_bomb,
            )
        assert path.exists()

        resumed = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"),
            N, SEED, keep_records=True, checkpoint_path=path,
        )
        assert _records_key(resumed) == _records_key(baseline)
        _assert_equivalent(resumed, baseline)

    def test_resume_across_schedules(self, tmp_path):
        """Checkpoints carry the completed-index *set*, so a campaign can
        even be killed on the reference engine's per-index loop and
        resumed trigger-ordered on the fast engine."""
        path = tmp_path / "c.json"
        baseline = _reference()

        def _bomb(done, total):
            if done >= N // 2:
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo", engine="reference"),
                N, SEED, keep_records=True, checkpoint_path=path,
                checkpoint_every=4, progress=_bomb,
            )
        resumed = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"),
            N, SEED, keep_records=True, checkpoint_path=path,
        )
        _assert_equivalent(resumed, baseline)


def _parallel(**kwargs):
    """The demo/REFINE cell on two local worker processes."""
    matrix = run_matrix(
        {"demo": DEMO_SOURCE}, ("REFINE",), N, base_seed=SEED, workers=2,
        **kwargs,
    )
    return matrix[("demo", "REFINE")]


class TestParallelEquivalence:
    def test_parallel_trigger_bit_identical(self):
        baseline = _reference()
        parallel = _parallel(keep_records=True)
        assert _records_key(parallel) == _records_key(baseline)
        _assert_equivalent(parallel, baseline)

    def test_parallel_trigger_finish_event_aggregates(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        log = EventLog(log_path)
        _parallel(events=log)
        log.close()
        events = read_events(log_path)
        finish = [e for e in events if e["event"] == "cell_finish"][0]
        assert finish["schedule"] == "trigger"
        assert finish["scheduler"]["experiments"] == N
        task_stats = [
            e for e in events
            if e["event"] == "scheduler_stats" and "task" in e
        ]
        # Per-task stats are independent schedulers; they sum to the totals.
        assert sum(e["experiments"] for e in task_stats) == N

"""Equivalence sweep: campaigns served from the golden chain are
bit-identical to from-scratch runs.

The trigger scheduler's only resume mechanism is its golden chain: the
copy-on-write snapshots its first cursor records, from which every later
batch of a retained scheduler restarts (usually mid-block).  Resuming may
change *how fast* a campaign runs, never *what* it computes.  Tier-1
covers two workloads cell by cell, record by record, against the
reference engine's from-scratch runs; ``-m slow`` runs the full matrix and
a LocalCluster whose workers retain one chain per campaign spec.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    TriggerScheduler,
    resolve_trigger_order,
    run_campaign,
    run_matrix,
)
from repro.campaign.runner import DEFAULT_SEED, make_tool
from repro.fi.tools import TOOL_ORDER
from repro.workloads import get_workload, workload_names

WORKLOADS = ("EP", "DC")
N = 8


def _source(name):
    return get_workload(name).source


def _scratch(tool_name, workload, n=N):
    """From-scratch per-index campaign on the reference engine."""
    return run_campaign(
        make_tool(tool_name, _source(workload), workload, engine="reference"),
        n, keep_records=True,
    )


def assert_records_identical(a, b, context=""):
    assert_same_records(a.records, b.records, context)
    assert a.counts == b.counts, context
    assert a.total_steps == b.total_steps, context


def assert_same_records(a, b, context=""):
    assert len(a) == len(b), context
    for ra, rb in zip(a, b):
        assert ra.index == rb.index, context
        assert ra.seed == rb.seed, (context, ra.index)
        assert ra.outcome == rb.outcome, (context, ra.index)
        assert ra.steps == rb.steps, (context, ra.index)
        assert ra.trap == rb.trap, (context, ra.index)
        assert ra.exit_code == rb.exit_code, (context, ra.index)
        assert ra.fault == rb.fault, (context, ra.index)
        assert ra.cycles == pytest.approx(rb.cycles, abs=1e-9), (
            context, ra.index,
        )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("tool_name", TOOL_ORDER)
def test_sequential_snapshot_equals_scratch(workload, tool_name):
    """One experiment per batch on one retained scheduler: every batch
    after the first resumes from a golden-chain snapshot."""
    ref = _scratch(tool_name, workload)
    tool = make_tool(tool_name, _source(workload), workload)
    sched = TriggerScheduler(tool)
    order = [i for _, i in resolve_trigger_order(tool, DEFAULT_SEED, range(N))]
    records = {}
    cursor_steps = []
    for index in order:
        (rec,) = sched.run_batch(DEFAULT_SEED, [index])
        records[index] = rec
        cursor_steps.append(sched.stats.cursor_steps)
    assert cursor_steps[0] == tool.profile.steps
    # Later batches run the cursor only from the nearest chain state.
    assert sum(cursor_steps[1:]) < (N - 1) * tool.profile.steps
    out = [records[i] for i in range(N)]
    assert all(rec.snapshot_hit for rec in out)
    assert_same_records(ref.records, out, f"{workload}/{tool_name}")


def test_parallel_snapshot_equals_scratch(tmp_path):
    """``-j 2``: two worker processes each resume their leases from their
    own golden chain and share the decoded cache under the checkpoints."""
    workload, tool_name = "EP", "REFINE"
    ref = _scratch(tool_name, workload)
    out = run_matrix(
        {workload: _source(workload)}, [tool_name], N, workers=2,
        keep_records=True, checkpoint_dir=tmp_path,
    )[(workload, tool_name)]
    assert_records_identical(ref, out, "parallel EP/REFINE")
    assert list((tmp_path / "decoded").glob("*.marshal"))


def test_matrix_decoded_cache_under_checkpoints(tmp_path):
    source = _source("EP")
    ref = run_matrix({"EP": source}, ["REFINE"], N, keep_records=True,
                     engine="reference")
    out = run_matrix(
        {"EP": source}, ["REFINE"], N, keep_records=True,
        checkpoint_dir=tmp_path,
    )
    assert_records_identical(
        ref[("EP", "REFINE")], out[("EP", "REFINE")], "matrix EP/REFINE"
    )
    assert list((tmp_path / "decoded").glob("*.marshal"))


@pytest.mark.slow
def test_full_matrix_snapshot_equals_scratch():
    sources = {w: _source(w) for w in workload_names()}
    ref = run_matrix(sources, TOOL_ORDER, 24, keep_records=True,
                     engine="reference")
    out = run_matrix(sources, TOOL_ORDER, 24, keep_records=True)
    for key in ref:
        assert_records_identical(ref[key], out[key], str(key))


@pytest.mark.slow
def test_local_cluster_workers_retain_golden_chains(tmp_path):
    """Concurrent dist workers lease small tasks of two cells; the result
    must match a from-scratch run, and each worker records a golden chain
    at most once per cell — every later lease resumes from it."""
    from repro.campaign import EventLog, read_events
    from repro.dist import CampaignSpec
    from repro.dist.local import LocalCluster

    source = _source("EP")
    ref = run_matrix({"EP": source}, ["REFINE", "PINFI"], 16,
                     engine="reference")
    specs = [
        CampaignSpec(workload="EP", source=source, tool_name=t, n=16)
        for t in ("REFINE", "PINFI")
    ]
    log_path = tmp_path / "events.jsonl"
    log = EventLog(log_path)
    with LocalCluster(specs, workers=3, chunk_size=3, events=log) as cluster:
        results = cluster.results(timeout=300)
    log.close()
    for key, res in results.items():
        assert res.counts == ref[key].counts, key
        assert res.total_steps == ref[key].total_steps, key
    recorded = {}
    for event in read_events(log_path):
        if event["event"] == "scheduler_stats" and event["sync_states"]:
            cell = (event["worker"], event["tool"])
            recorded[cell] = recorded.get(cell, 0) + 1
    assert recorded and all(k == 1 for k in recorded.values()), recorded

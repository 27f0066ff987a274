"""Artifacts written while ``--schedule`` and ``--snapshot-interval``
existed keep loading and running.

Specs, service queue rows, partial results and checkpoints from those
versions can carry ``schedule``/``snapshot_interval`` (and a worker part
can carry ``snapshot_stats``).  Every fast-engine campaign is now
trigger-ordered with the golden chain as its only resume mechanism, so the
readers ignore those fields and the campaign runs the one path.
"""

import json

from repro.campaign import make_tool, run_campaign
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    checkpoint_to_dict,
)
from repro.campaign.io import result_from_dict, result_to_dict
from repro.dist.protocol import CampaignSpec
from repro.dist.worker import Worker
from repro.service.lifecycle import WorkloadLifecycle

from tests.conftest import DEMO_SOURCE

N = 8
LEGACY = {"schedule": "index", "snapshot_interval": 0}


def _reference():
    return run_campaign(
        make_tool("REFINE", DEMO_SOURCE, "demo", engine="reference"), N,
        keep_records=True,
    )


def _key(result):
    return [
        (r.index, r.seed, r.outcome, r.steps, r.trap, r.exit_code, r.fault)
        for r in sorted(result.records, key=lambda r: r.index)
    ]


def test_legacy_spec_constructs_loads_and_runs():
    fields = dict(workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=N)
    built = CampaignSpec(**fields, **LEGACY)
    wire = json.loads(json.dumps({**built.to_dict(), **LEGACY}))
    loaded = CampaignSpec.from_dict(wire)
    assert built == loaded == CampaignSpec(**fields)
    assert "schedule" not in built.to_dict()
    assert "snapshot_interval" not in built.to_dict()
    part = Worker("127.0.0.1", 1)._run_task(loaded, tuple(range(N)))
    assert _key(part) == _key(_reference())


def test_legacy_service_queue_row_populates():
    request = {
        "workloads": ["demo"], "tools": ["REFINE", "PINFI"], "n": N,
        "sources": {"demo": DEMO_SOURCE}, **LEGACY,
    }
    specs = WorkloadLifecycle().populate(request)
    assert [s.tool_name for s in specs] == ["REFINE", "PINFI"]
    assert all(s.n == N for s in specs)


def test_legacy_checkpoint_resumes(tmp_path):
    reference = _reference()
    # The first half of the campaign, as a killed run would have left it.
    half = run_campaign(make_tool("REFINE", DEMO_SOURCE, "demo"), N // 2,
                        keep_records=True)
    half.n = N
    data = checkpoint_to_dict(CampaignCheckpoint(
        workload="demo", tool="REFINE", n=N,
        base_seed=0x5EED0EF1, keep_records=True,
        completed=set(range(N // 2)), partial=half,
    ))
    data.update(LEGACY)
    data["partial"]["snapshot_stats"] = {"hits": 3, "misses": 1}
    path = tmp_path / "legacy.ckpt.json"
    path.write_text(json.dumps(data))
    resumed = run_campaign(
        make_tool("REFINE", DEMO_SOURCE, "demo"), N, keep_records=True,
        checkpoint_path=path,
    )
    assert _key(resumed) == _key(reference)
    assert resumed.counts == reference.counts


def test_legacy_part_with_snapshot_stats_loads():
    part = _reference()
    data = result_to_dict(part)
    data["snapshot_stats"] = {"hits": 1}
    loaded = result_from_dict(data)
    assert _key(loaded) == _key(part)
    assert not hasattr(loaded, "snapshot_stats")

"""Golden-chain reuse on a retained trigger-ordered scheduler.

The scheduler's cursor records the golden chain of CPU snapshots once and
every later batch resumes from it; experiments fork off the cursor rather
than re-executing the golden prefix from step 0.
"""

from __future__ import annotations

import pytest

from repro.campaign import TriggerScheduler, make_tool, resolve_trigger_order
from repro.campaign.schedule import chain_interval
from repro.workloads import get_workload

SEED = 0


@pytest.fixture(scope="module")
def ep_source():
    return get_workload("EP").source


class TestEngine:
    def test_golden_recorded_once_per_engine(self, ep_source):
        tool = make_tool("REFINE", ep_source, "EP")
        sched = TriggerScheduler(tool)
        order = [i for _, i in resolve_trigger_order(tool, SEED, range(4))]

        list(sched.run_batch(SEED, order[:2]))
        chain = list(sched._chain)
        assert chain
        assert sched.stats.sync_states == len(chain)

        list(sched.run_batch(SEED, order[2:]))
        # The second batch recorded nothing and kept the very same states.
        assert sched.stats.sync_states == 0
        assert len(sched._chain) == len(chain)
        assert all(a is b for a, b in zip(sched._chain, chain))

    def test_hits_skip_golden_prefix(self, ep_source):
        tool = make_tool("REFINE", ep_source, "EP")
        sched = TriggerScheduler(tool)
        records = list(sched.run_batch(SEED, range(4)))
        stats = sched.stats
        assert all(rec.snapshot_hit for rec in records)
        assert stats.fork_hits > 0
        assert stats.prefix_steps_saved > 0
        assert sched._interval == chain_interval(tool.profile.steps)

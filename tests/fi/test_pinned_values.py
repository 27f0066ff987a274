"""Pinned weighted trigger draws and PINFI cycle totals.

The values were recorded when these computations still ran on numpy
(``np.cumsum``/``np.searchsorted`` for residency-weighted triggers,
``np.dot`` for cycle totals).  The plain-Python replacements accumulate in
the same left-to-right order, so every draw and every total must stay
bit-identical.
"""

import pytest

from repro.fi import PinfiTool, RefineTool
from repro.workloads import workload_sources

from tests.conftest import DEMO_SOURCE

WEIGHTED = "single-bit:weighted=1"


@pytest.mark.parametrize(
    "cls, expected",
    [
        (PinfiTool, [523, 327, 217, 436, 430]),
        (RefineTool, [536, 344, 237, 450, 443]),
    ],
)
def test_weighted_trigger_draws_pinned(cls, expected):
    tool = cls(DEMO_SOURCE, "demo", fault_model=WEIGHTED)
    assert [
        tool.plan_from_seed(s).target_index for s in (0, 1, 7, 42, 1234)
    ] == expected


def test_weighted_trigger_draws_pinned_on_a_workload():
    tool = PinfiTool(workload_sources()["EP"], "EP", fault_model=WEIGHTED)
    assert [tool.plan_from_seed(s).target_index for s in (3, 99)] == [
        1798, 4058,
    ]


def test_pinfi_demo_cycle_totals_pinned():
    tool = PinfiTool(DEMO_SOURCE, "demo")
    assert tool.profile.cycles == 8247.8
    assert [tool.inject(s).cycles for s in (0, 1, 2, 3)] == [
        6608.175, 7638.875, 7433.025, 8067.475,
    ]


def test_workload_cycle_totals_pinned():
    source = workload_sources()["EP"]
    pinfi = PinfiTool(source, "EP")
    assert pinfi.profile.cycles == 140968.125
    assert [pinfi.inject(s).cycles for s in (0, 5)] == [119208.925, 94409.925]
    assert RefineTool(source, "EP").profile.cycles == 103364.5

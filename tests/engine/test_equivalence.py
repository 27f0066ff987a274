"""Fast-engine vs reference-engine equivalence on the paper's workloads.

The acceptance bar for the free-run engine: bit-identical injection
results across the full workload matrix, for all three tools (mid-run
resumes are covered by the scheduler equivalence suite in
``tests/campaign/test_schedule.py``).  The tier-1 smoke below covers one
workload; the full matrix runs under ``-m slow`` (CI's equivalence step
and the nightly fuzz job).
"""

import pytest

from repro.testing.oracles import check_workload_engine_equivalence
from repro.workloads import workload_names

SMOKE_WORKLOAD = "EP"


def test_engine_equivalence_smoke():
    divergence = check_workload_engine_equivalence(
        SMOKE_WORKLOAD, seeds=range(2)
    )
    assert divergence is None, divergence.describe()


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_engine_equivalence_full_matrix(name):
    divergence = check_workload_engine_equivalence(
        name, seeds=range(4)
    )
    assert divergence is None, divergence.describe()


@pytest.mark.slow
def test_engine_oracle_on_fuzzed_modules():
    from repro.testing import ORACLES
    from repro.testing.generator import generate_module

    oracle = ORACLES["engine"]
    for seed in range(25):
        module = generate_module(seed=seed)
        divergence = oracle.check(module)
        assert divergence is None, divergence.describe()

"""The pluggable fault-model subsystem (repro.fi.models).

Covers the registry and spec-string round-trip, the single-bit
bit-identity guarantee, and — via Hypothesis — the per-model structural
properties the statistical harness relies on: multi-bit flips exactly
``min(k, width)`` distinct bits, stuck-at dwell re-application is
idempotent, opcode corruption always traps, and weighted trigger
selection is a pure function of the derived seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError
from repro.fi import LLFITool, PinfiTool, RefineTool
from repro.fi.models import (
    DEFAULT_FAULT_MODEL,
    FAULT_MODELS,
    MODEL_ORDER,
    MultiBitModel,
    SingleBitModel,
    StuckAtModel,
    parse_fault_model,
    resolve_fault_model,
    residency_weights,
)
from repro.utils.rng import derive_seed

from tests.conftest import DEMO_SOURCE


@pytest.fixture(scope="module")
def refine_tool():
    return RefineTool(DEMO_SOURCE, "demo")


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_model_order_matches_registry(self):
        assert set(MODEL_ORDER) == set(FAULT_MODELS)
        assert MODEL_ORDER[0] == DEFAULT_FAULT_MODEL == "single-bit"

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_spec_round_trips(self, name):
        model = parse_fault_model(name)
        assert model.spec == name
        assert parse_fault_model(model.spec).spec == model.spec

    def test_spec_round_trips_with_params(self):
        for spec in (
            "multi-bit:k=5",
            "multi-bit:k=3,adjacent=1",
            "stuck-at:value=0,dwell=128",
            "single-bit:weighted=1",
            "memory-cell:weighted=1",
        ):
            model = parse_fault_model(spec)
            again = parse_fault_model(model.spec)
            assert again.spec == model.spec
            for key in (*model.PARAMS, "weighted"):
                assert getattr(again, key) == getattr(model, key)

    def test_default_params_elided_from_spec(self):
        assert parse_fault_model("multi-bit:k=2,adjacent=0").spec == "multi-bit"
        assert parse_fault_model("stuck-at:dwell=32,value=1").spec == "stuck-at"

    def test_unknown_model_rejected(self):
        with pytest.raises(CampaignError, match="unknown fault model"):
            parse_fault_model("triple-bit")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CampaignError, match="does not take parameter"):
            parse_fault_model("single-bit:k=3")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            parse_fault_model("multi-bit:k")

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(CampaignError, match="not an integer"):
            parse_fault_model("multi-bit:k=two")

    def test_param_bounds(self):
        with pytest.raises(CampaignError):
            parse_fault_model("multi-bit:k=1")
        with pytest.raises(CampaignError):
            parse_fault_model("multi-bit:k=65")
        with pytest.raises(CampaignError):
            parse_fault_model("stuck-at:value=2")
        with pytest.raises(CampaignError):
            parse_fault_model("stuck-at:dwell=0")

    def test_resolve_fault_model(self):
        assert isinstance(resolve_fault_model(None), SingleBitModel)
        model = MultiBitModel(k=3)
        assert resolve_fault_model(model) is model
        assert resolve_fault_model("multi-bit:k=3").spec == "multi-bit:k=3"

    def test_opcode_model_rejects_llfi(self):
        with pytest.raises(CampaignError, match="instruction encoding"):
            resolve_fault_model("opcode").check_tool(LLFITool)
        # Binary/backend-level tools pass.
        resolve_fault_model("opcode").check_tool(RefineTool)
        resolve_fault_model("opcode").check_tool(PinfiTool)

    def test_tool_ctor_validates_model(self):
        with pytest.raises(CampaignError):
            LLFITool(DEMO_SOURCE, "demo", fault_model="opcode")


# ----------------------------------------------------- single-bit identity


class TestSingleBitIdentity:
    def test_plans_identical_to_default(self, refine_tool):
        """--fault-model single-bit is bit-identical to the pre-model
        default: same plan fields from the same seed."""
        explicit = RefineTool(DEMO_SOURCE, "demo", fault_model="single-bit")
        for seed in range(200):
            a = refine_tool.plan_from_seed(seed)
            b = explicit.plan_from_seed(seed)
            assert (a.target_index, a.operand_pick, a.bit_pick) == (
                b.target_index, b.operand_pick, b.bit_pick
            )
            assert a.model is None and b.model is None
            assert a.last_index == b.last_index == a.target_index

    def test_runs_identical_to_default(self, refine_tool):
        explicit = RefineTool(DEMO_SOURCE, "demo", fault_model="single-bit")
        for seed in range(12):
            a = refine_tool.inject(seed).result
            b = explicit.inject(seed).result
            assert a.output == b.output
            assert a.trap == b.trap
            fa, fb = a.fault, b.fault
            assert (fa.pc, fa.operand_desc, fa.bit) == (
                fb.pc, fb.operand_desc, fb.bit
            )
            assert fa.model == fb.model == "single-bit"

    def test_opcode_probability_draw_order_preserved(self):
        """The legacy opcode_faults draw happens after the model's picks,
        replaying the historical RNG sequence."""
        plain = RefineTool(DEMO_SOURCE, "demo", opcode_faults=0.3)
        modeled = RefineTool(
            DEMO_SOURCE, "demo", opcode_faults=0.3, fault_model="single-bit"
        )
        for seed in range(100):
            assert (
                plain.plan_from_seed(seed).corrupt_opcode
                == modeled.plan_from_seed(seed).corrupt_opcode
            )


# ------------------------------------------------------ hypothesis: models


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=64),
    adjacent=st.integers(min_value=0, max_value=1),
    bit_pick=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    picks=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=63, max_size=63,
    ),
    width=st.sampled_from([16, 64]),
)
def test_multi_bit_flips_exactly_k_distinct_bits(
    k, adjacent, bit_pick, picks, width
):
    from repro.machine.cpu import FaultPlan

    model = MultiBitModel(k=k, adjacent=adjacent)
    plan = FaultPlan(
        target_index=1, operand_pick=0.0, bit_pick=bit_pick,
        tool="REFINE", model=model, picks=tuple(picks),
    )
    bits = model.flip_bits(plan, width)
    assert len(bits) == len(set(bits)) == min(k, width)
    assert all(0 <= b < width for b in bits)
    if adjacent:
        first = bits[0]
        assert bits == tuple((first + i) % width for i in range(len(bits)))


@settings(max_examples=40, deadline=None)
@given(
    raw=st.integers(min_value=0, max_value=(1 << 64) - 1),
    bit=st.integers(min_value=0, max_value=63),
    value=st.integers(min_value=0, max_value=1),
)
def test_stuck_at_bit_forcing_is_idempotent(raw, bit, value):
    from repro.fi.models import _set_bit

    once = _set_bit(raw, bit, value)
    assert _set_bit(once, bit, value) == once
    assert (once >> bit) & 1 == value
    # Every other bit is untouched.
    assert once & ~(1 << bit) == raw & ~(1 << bit) & ((1 << 64) - 1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_opcode_model_always_traps_or_crashes(seed, refine_tool):
    tool = RefineTool(DEMO_SOURCE, "demo", fault_model="opcode")
    run = tool.inject(seed)
    assert run.result.trap is not None
    assert run.result.fault is not None
    assert run.result.fault.model == "opcode"


@settings(max_examples=25, deadline=None)
@given(index=st.integers(min_value=0, max_value=10_000))
def test_weighted_sampling_reproducible_from_derived_seed(index):
    """Weighted trigger selection is a pure function of the experiment
    seed: two independently-built tools draw the same plan."""
    a = RefineTool(DEMO_SOURCE, "demo", fault_model="single-bit:weighted=1")
    b = RefineTool(DEMO_SOURCE, "demo", fault_model="single-bit:weighted=1")
    seed = derive_seed(0x5EED0EF1, "demo", "REFINE", index)
    pa = a.plan_from_seed(seed)
    pb = b.plan_from_seed(seed)
    assert pa.target_index == pb.target_index
    assert (pa.operand_pick, pa.bit_pick) == (pb.operand_pick, pb.bit_pick)


# -------------------------------------------------------------- residency


class TestResidencyWeighting:
    def test_weights_cover_every_candidate(self, refine_tool):
        weights = residency_weights(refine_tool)
        assert len(weights) == refine_tool.profile.total_candidates
        assert all(w > 0 for w in weights)

    def test_weights_cached(self, refine_tool):
        assert residency_weights(refine_tool) is residency_weights(refine_tool)

    def test_weighted_targets_in_range(self, refine_tool):
        tool = RefineTool(DEMO_SOURCE, "demo", fault_model="single-bit:weighted=1")
        total = tool.profile.total_candidates
        targets = {tool.plan_from_seed(s).target_index for s in range(500)}
        assert all(1 <= t <= total for t in targets)
        assert len(targets) > 50  # spread, not collapsed onto one site

    def test_weighted_biases_toward_costly_sites(self):
        """Expensive instructions absorb proportionally more faults than
        under uniform selection (the DAVOS residency argument).  PINFI
        observes the real instruction stream (REFINE's candidates are
        flat-cost fi_check pseudos), so the cost spread is visible."""
        uni = PinfiTool(DEMO_SOURCE, "demo")
        wtd = PinfiTool(DEMO_SOURCE, "demo", fault_model="single-bit:weighted=1")
        from statistics import median as median_of

        weights = residency_weights(uni)
        median = median_of(weights)
        assert max(weights) > median  # the demo program has costly sites

        def costly_fraction(tool, n=600):
            hits = 0
            for s in range(n):
                t = tool.plan_from_seed(s).target_index
                hits += weights[t - 1] > median
            return hits / n

        assert costly_fraction(wtd) > costly_fraction(uni) + 0.05


# ------------------------------------------------------------ end-to-end


class TestEndToEnd:
    @pytest.mark.parametrize("spec", [
        "multi-bit:k=4", "memory-cell", "cache-line", "stuck-at:dwell=8",
    ])
    def test_models_record_their_spec(self, spec):
        tool = RefineTool(DEMO_SOURCE, "demo", fault_model=spec)
        canonical = parse_fault_model(spec).spec
        for seed in range(6):
            fault = tool.inject(seed).result.fault
            if fault is None:  # trigger past the program's end window
                continue
            assert fault.model == canonical
            assert fault.dwell == parse_fault_model(spec).dwell

    def test_multi_bit_records_bits(self):
        tool = RefineTool(DEMO_SOURCE, "demo", fault_model="multi-bit:k=3")
        seen = False
        for seed in range(10):
            fault = tool.inject(seed).result.fault
            if fault is None or fault.operand_desc == "flags":
                continue
            assert fault.bits is not None and len(fault.bits) == 3
            assert fault.bit == fault.bits[0]
            seen = True
        assert seen

    def test_cache_line_has_no_bit_index(self):
        tool = RefineTool(DEMO_SOURCE, "demo", fault_model="cache-line")
        seen = False
        for seed in range(10):
            fault = tool.inject(seed).result.fault
            if fault is None:
                continue
            assert fault.bit is None
            assert fault.address is not None and fault.address % 64 == 0
            assert len(fault.bits) == 1
            seen = True
        assert seen

    def test_memory_models_target_live_data(self):
        """Addresses land inside the occupied data segment, where faults
        can actually matter (not the 1MB of mostly-unmapped space)."""
        tool = RefineTool(DEMO_SOURCE, "demo", fault_model="memory-cell")
        data_end = tool.program.data_end
        for seed in range(10):
            fault = tool.inject(seed).result.fault
            if fault is None:
                continue
            assert fault.address < data_end + 8

    def test_stuck_at_dwell_spans_candidates(self):
        model = StuckAtModel(dwell=16)
        tool = RefineTool(DEMO_SOURCE, "demo", fault_model=model)
        plan = tool.plan_from_seed(3)
        assert plan.last_index == plan.target_index + 15

    def test_llfi_runs_every_non_opcode_model(self):
        for spec in ("multi-bit", "memory-cell", "cache-line", "stuck-at"):
            tool = LLFITool(DEMO_SOURCE, "demo", fault_model=spec)
            run = tool.inject(1)
            assert run.result is not None

"""Unit tests for the fast block-compiled execution engine.

Every test here states the same invariant from a different angle: whatever
the fast engine does internally (batched accounting, mid-block
entries, careful windows), its observable :class:`ExecutionResult` is bit-identical
to the reference interpreter loop.
"""

import pytest

from repro.backend import compile_minic
from repro.engine import DEFAULT_ENGINE, ENGINE_NAMES, ReferenceEngine, get_engine
from repro.engine.blocks import discover_blocks
from repro.engine.cache import TranslationCache, translation_fingerprint
from repro.engine.fast import FastEngine
from repro.machine import CPU, load_binary
from repro.machine import opcodes as O
from repro.snapshot import capture_snapshot, restore_snapshot

from tests.conftest import DEMO_SOURCE


@pytest.fixture(scope="module")
def program():
    return load_binary(compile_minic(DEMO_SOURCE, "demo"))


def assert_same_result(a, b):
    assert a.output == b.output
    assert a.exit_code == b.exit_code
    assert a.trap == b.trap
    assert a.trap_pc == b.trap_pc
    assert a.steps == b.steps
    assert list(a.counts) == list(b.counts)


def _mid_block_snapshots(program):
    """Reference-loop states whose next pc lies inside a basic block."""
    leaders, _ = discover_blocks(program)
    snaps = []
    cpu = CPU(program)
    cpu.record_snapshots(37, lambda c, pc: snaps.append(capture_snapshot(c, pc)))
    cpu.run()
    mid = [snap for snap in snaps if snap.pc not in set(leaders)]
    assert mid, "no mid-block states to resume from"
    return mid


class TestSelection:
    def test_default_is_fast(self):
        assert DEFAULT_ENGINE == "fast"
        assert get_engine().name == "fast"

    def test_explicit_names(self):
        assert get_engine("reference").name == "reference"
        assert get_engine("fast").name == "fast"
        assert set(ENGINE_NAMES) == {"fast", "reference"}

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert get_engine().name == "reference"
        # An explicit spec always beats the environment.
        assert get_engine("fast").name == "fast"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp")


class TestRunEquivalence:
    def test_full_run(self, program):
        ref = ReferenceEngine().run(CPU(program))
        fast = FastEngine().run(CPU(program))
        assert_same_result(ref, fast)

    @pytest.mark.parametrize("budget", [1, 17, 500, 710, 711, 712])
    def test_timeout_at_any_budget(self, program, budget):
        # 711 is the demo program's exact step count: the halt-vs-timeout
        # boundary must agree with the reference loop on both sides of it.
        ref = ReferenceEngine().run(CPU(program), budget=budget)
        fast = FastEngine().run(CPU(program), budget=budget)
        assert_same_result(ref, fast)

    def test_trap_mid_block(self):
        # Division by a runtime zero traps partway through a basic block;
        # the fast engine must rewind its batched counts to the executed
        # prefix (trapping instruction itself not counted).
        src = """
        int zero = 0;
        int main() { int a = 7; return a / zero; }
        """
        prog = load_binary(compile_minic(src, "trap"))
        ref = ReferenceEngine().run(CPU(prog))
        fast = FastEngine().run(CPU(prog))
        assert ref.trap == "divide-by-zero"
        assert_same_result(ref, fast)

    def test_stack_overflow_trap(self):
        src = "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        prog = load_binary(compile_minic(src, "so"))
        ref = ReferenceEngine().run(CPU(prog), budget=50_000_000)
        fast = FastEngine().run(CPU(prog), budget=50_000_000)
        assert ref.trap == "stack-overflow"
        assert_same_result(ref, fast)

    def test_mid_block_resume(self, program):
        # Drive the reference loop to an arbitrary step count (not a block
        # leader), then continue with the fast engine vs the reference:
        # exercises the mid-block entry path.
        snaps = []
        cpu = CPU(program)
        cpu.record_snapshots(97, lambda c, pc: snaps.append(
            capture_snapshot(c, pc)))
        full = cpu.run()
        assert len(snaps) >= 2
        for snap in snaps:
            ref_cpu, fast_cpu = CPU(program), CPU(program)
            restore_snapshot(ref_cpu, snap)
            restore_snapshot(fast_cpu, snap)
            ref = ReferenceEngine().resume(ref_cpu, snap.pc)
            fast = FastEngine().resume(fast_cpu, snap.pc)
            assert_same_result(ref, fast)
            assert fast.steps == full.steps

    def test_mid_block_entry_generates_no_code(self, program):
        # A mid-block entry registers only the remainder's metadata; the
        # instantiated blocks stay exactly the translated leaders.
        leaders, end_of = discover_blocks(program)
        snap = _mid_block_snapshots(program)[0]
        cpu = CPU(program)
        restore_snapshot(cpu, snap)
        engine = FastEngine(cache_dir=None)
        engine.cache = TranslationCache()
        engine.resume(cpu, snap.pc)
        trans = engine.cache.translation_for(program)
        assert sorted(cpu._fast_ctx[2]) == leaders
        assert trans.ends[snap.pc] == end_of[snap.pc]

    def test_budget_expires_inside_mid_block_remainder(self, program):
        _, end_of = discover_blocks(program)
        for snap in _mid_block_snapshots(program):
            remainder = end_of[snap.pc] - snap.pc
            for extra in {1, remainder - 1, remainder}:
                if extra < 1:
                    continue
                budget = snap.steps + extra
                ref_cpu, fast_cpu = CPU(program), CPU(program)
                restore_snapshot(ref_cpu, snap)
                restore_snapshot(fast_cpu, snap)
                ref = ReferenceEngine().resume(ref_cpu, snap.pc, budget)
                fast = FastEngine().resume(fast_cpu, snap.pc, budget)
                assert ref.trap == "timeout"
                assert_same_result(ref, fast)

    def test_sync_point_inside_mid_block_remainder(self, program):
        _, end_of = discover_blocks(program)
        full = ReferenceEngine().run(CPU(program))
        for snap in _mid_block_snapshots(program):
            remainder = end_of[snap.pc] - snap.pc
            sync = snap.steps + max(1, remainder // 2)
            seen = []
            cpu = CPU(program)
            restore_snapshot(cpu, snap)
            result = FastEngine().resume_synced(
                cpu, snap.pc, None, [sync],
                lambda c, pc: seen.append((c.steps, pc)) or False,
            )
            assert seen and seen[0][0] == sync
            assert_same_result(full, result)

    def test_corrupted_return_address_lands_mid_block(self, program):
        # Freeze the demo at a RET, overwrite the return address on the
        # stack with a mid-block pc, and run both engines from there: the
        # fast engine must enter the block interior exactly as the
        # reference loop does (whatever happens next).
        from repro.machine.registers import RSP_IDX

        leaders, end_of = discover_blocks(program)
        mid = next(
            pc for pc in range(len(program.code))
            if pc not in leaders and end_of[pc] - pc > 2
        )
        at_ret = []
        cpu = CPU(program)
        cpu.record_snapshots(1, lambda c, pc: at_ret.append(
            capture_snapshot(c, pc)) if (
                not at_ret and program.code[pc][0] == O.RET) else None)
        cpu.run()
        assert at_ret, "demo program never returns"
        snap = at_ret[0]
        results = []
        for engine in (ReferenceEngine(), FastEngine()):
            c = CPU(program)
            restore_snapshot(c, snap)
            sp = c.iregs[RSP_IDX]
            c.mem[sp:sp + 8] = mid.to_bytes(8, "little")
            results.append(engine.resume(c, snap.pc, budget=snap.steps + 5000))
        assert_same_result(*results)

    @pytest.mark.parametrize("engine_name", list(ENGINE_NAMES))
    def test_budget_on_snapshot_boundary(self, program, engine_name):
        # Budget landing exactly on a snapshot boundary: the timeout wins
        # and the hook is not called — on every engine.
        calls = []
        cpu = CPU(program)
        cpu.record_snapshots(500, lambda c, pc: calls.append(c.steps))
        result = get_engine(engine_name).run(cpu, budget=500)
        assert result.trap == "timeout"
        assert result.steps == 500
        assert calls == []


class TestToolEquivalence:
    @pytest.mark.parametrize("tool_name", ["REFINE", "LLFI", "PINFI"])
    def test_injection_matches_reference(self, tool_name):
        from repro.fi.tools import TOOL_CLASSES

        ref_tool = TOOL_CLASSES[tool_name](
            DEMO_SOURCE, workload="demo", engine="reference"
        )
        fast_tool = TOOL_CLASSES[tool_name](
            DEMO_SOURCE, workload="demo", engine="fast"
        )
        assert ref_tool.profile.golden_output == fast_tool.profile.golden_output
        assert ref_tool.profile.steps == fast_tool.profile.steps
        assert (
            ref_tool.profile.total_candidates
            == fast_tool.profile.total_candidates
        )
        for seed in range(8):
            a = ref_tool.inject(seed)
            b = fast_tool.inject(seed)
            assert_same_result(a.result, b.result)
            assert a.result.fault == b.result.fault


class TestTranslationCache:
    def test_fingerprint_stable_and_content_sensitive(self, program):
        other = load_binary(compile_minic("int main() { return 1; }", "o"))
        assert translation_fingerprint(program) == translation_fingerprint(program)
        assert translation_fingerprint(program) != translation_fingerprint(other)

    def test_in_memory_reuse(self, program):
        cache = TranslationCache()
        assert cache.translation_for(program) is cache.translation_for(program)

    def test_disk_persistence_round_trip(self, program, tmp_path):
        warm = TranslationCache(str(tmp_path))
        warm.translation_for(program)
        fp = program._translation_fp
        assert (tmp_path / f"{fp}.marshal").exists()
        assert (tmp_path / f"{fp}.py").exists()

        cold = TranslationCache(str(tmp_path))
        trans = cold.translation_for(program)
        # Loaded from the marshalled code object, so no source regeneration.
        assert trans.source is None
        fast = FastEngine(cache_dir=str(tmp_path))
        result = fast.run(CPU(program))
        assert_same_result(ReferenceEngine().run(CPU(program)), result)

    def test_corrupt_disk_entry_falls_back(self, program, tmp_path):
        warm = TranslationCache(str(tmp_path))
        warm.translation_for(program)
        fp = program._translation_fp
        (tmp_path / f"{fp}.marshal").write_bytes(b"not marshal data")
        cold = TranslationCache(str(tmp_path))
        trans = cold.translation_for(program)  # silently re-translates
        assert trans.source is not None


class TestBlockDiscovery:
    def test_blocks_partition_the_code(self, program):
        leaders, end_of = discover_blocks(program)
        assert leaders[0] == 0 or 0 in program.func_entry.values()
        covered = set()
        for start in leaders:
            rng = range(start, end_of[start])
            assert rng, "empty block"
            covered.update(rng)
        assert covered == set(range(len(program.code)))

    def test_terminators_end_blocks(self, program):
        leaders, end_of = discover_blocks(program)
        terminators = {O.JMP, O.JCC, O.CALL, O.RET}
        for start in leaders:
            end = end_of[start]
            for pc in range(start, end - 1):
                assert program.code[pc][0] not in terminators

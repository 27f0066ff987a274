"""Pluggable execution engines for the sx64 machine.

Every consumer that used to call ``CPU.run``/``CPU.resume`` directly — the
campaign runner, the parallel slicer, the distributed worker, the trigger
scheduler, and the differential-testing oracles — now goes through the
:class:`ExecutionEngine` interface, so the execution strategy is a
per-campaign choice:

* ``reference`` — the original ~40-arm interpreter loop in
  :mod:`repro.machine.cpu`; every dynamic event is checked on every
  instruction.  This is the semantic ground truth.
* ``fast`` (default) — the ZOFI-style free-run core in
  :mod:`repro.engine.fast`: decoded-block superinstructions with batched
  accounting, arming full instrumentation only in a bounded window around
  the injection trigger.  Bit-identical results, a fraction of the cost.

Selection: explicit constructor argument > ``REPRO_ENGINE`` environment
variable > ``fast``.
"""

from __future__ import annotations

import os

from repro.machine.cpu import CPU, ExecutionResult

#: Engine chosen when neither the caller nor the environment says otherwise.
DEFAULT_ENGINE = "fast"

#: Recognized engine names (CLI ``--engine`` choices).
ENGINE_NAMES = ("fast", "reference")


class ExecutionEngine:
    """Strategy interface: execute a prepared CPU to completion."""

    name: str = "abstract"

    def run(self, cpu: CPU, budget: int | None = None) -> ExecutionResult:
        """Execute ``cpu`` from its program entry point."""
        raise NotImplementedError

    def resume(self, cpu: CPU, pc: int, budget: int | None = None) -> ExecutionResult:
        """Continue restored architectural state at ``pc``."""
        raise NotImplementedError


class ReferenceEngine(ExecutionEngine):
    """The original interpreter loop, unchanged."""

    name = "reference"

    def run(self, cpu: CPU, budget: int | None = None) -> ExecutionResult:
        return cpu.run(budget)

    def resume(self, cpu: CPU, pc: int, budget: int | None = None) -> ExecutionResult:
        return cpu.resume(pc, budget)


def get_engine(
    spec: str | None = None, cache_dir: str | None = None
) -> ExecutionEngine:
    """Resolve an engine by name.

    ``spec=None`` consults the ``REPRO_ENGINE`` environment variable, then
    falls back to :data:`DEFAULT_ENGINE`.  ``cache_dir`` points the fast
    engine's decoded-translation cache at a persistent directory
    (``<checkpoint-dir>/decoded`` for checkpointed campaigns); without it
    translations are still cached per process, just not across processes.
    """
    name = spec or os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
    if name == "reference":
        return ReferenceEngine()
    if name == "fast":
        from repro.engine.fast import FastEngine

        return FastEngine(cache_dir=cache_dir)
    raise ValueError(
        f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
    )


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "ExecutionEngine",
    "ReferenceEngine",
    "get_engine",
]

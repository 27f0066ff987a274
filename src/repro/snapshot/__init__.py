"""Copy-on-write CPU snapshots.

A :class:`CpuSnapshot` freezes the full architectural state of one
execution context at an instruction boundary, storing memory as page
deltas shared between consecutive snapshots of the same run.  The
trigger-ordered scheduler (:mod:`repro.campaign.schedule`) captures its
forks and its golden chain with :func:`capture_snapshot` and revives them
with :func:`restore_snapshot`.
"""

from repro.snapshot.state import (
    PAGE_SIZE,
    CpuSnapshot,
    base_pages,
    capture_snapshot,
    cpu_state_digest,
    restore_snapshot,
)

__all__ = [
    "PAGE_SIZE",
    "CpuSnapshot",
    "base_pages",
    "capture_snapshot",
    "cpu_state_digest",
    "restore_snapshot",
]

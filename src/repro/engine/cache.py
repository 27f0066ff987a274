"""Decoded-instruction (translation) cache for the fast engine.

A :class:`Translation` is the product of translating one loaded program:
the compiled ``make_blocks`` factory plus per-block metadata.  Building it
costs one pass over the code plus a ``compile()`` of the generated source,
so it must happen once per binary per *process*, not once per run — the
in-process LRU below guarantees that, keyed by a content fingerprint of
everything that feeds code generation.

When a cache directory is configured (``<checkpoint-dir>/decoded`` for
campaigns run with a checkpoint directory), the compiled code object is
also persisted via :mod:`marshal` next to the generated ``.py`` source
(kept for debuggability), so subsequent processes skip the Python
compilation too.  Disk entries are keyed by fingerprint *and* the
interpreter's ``cache_tag``, and the fingerprint includes
:data:`~repro.engine.blocks.TRANSLATION_VERSION`, so any change to the
generator, the program, or the interpreter invalidates them automatically.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from collections import OrderedDict

from repro.engine.blocks import (
    TRANSLATION_VERSION,
    block_meta,
    discover_blocks,
    exec_namespace,
    gen_source,
)
from repro.machine.loader import LoadedProgram

#: In-process LRU capacity (distinct binaries per worker process).
CACHE_CAPACITY = 64


def translation_fingerprint(program: LoadedProgram) -> str:
    """Content hash of everything block translation depends on."""
    h = hashlib.sha256()
    h.update(
        f"trans:{TRANSLATION_VERSION};{sys.implementation.cache_tag};"
        f"mem:{program.mem_size};stack:{program.stack_limit};".encode()
    )
    h.update(repr(sorted(program.func_entry.items())).encode())
    h.update(repr(program.code).encode())
    h.update(repr(list(program.is_candidate)).encode())
    return h.hexdigest()


class Translation:
    """One program's translated blocks plus the trampoline's metadata."""

    def __init__(
        self,
        program: LoadedProgram,
        fingerprint: str,
        code_obj=None,
    ) -> None:
        self.program = program
        self.fingerprint = fingerprint
        leaders, end_of = discover_blocks(program)
        self.end_of = end_of
        #: entry pc -> block end / length / FI_CHECK sites / candidates /
        #: LLFI inject-intrinsic visits
        self.ends: dict[int, int] = {}
        self.lens: dict[int, int] = {}
        self.sites: dict[int, int] = {}
        self.cands: dict[int, int] = {}
        self.llfis: dict[int, int] = {}
        for start in leaders:
            self._register_meta(start, end_of[start])
        self.source: str | None = None
        if code_obj is None:
            self.source = gen_source(program, leaders, end_of)
            code_obj = compile(self.source, f"<blocks:{fingerprint[:12]}>", "exec")
        self.code = code_obj
        ns = exec_namespace()
        exec(self.code, ns)
        self._factory = ns["make_blocks"]

    def _register_meta(self, start: int, end: int) -> None:
        meta = block_meta(self.program, start, end)
        self.ends[start] = meta.end
        self.lens[start] = meta.length
        self.sites[start] = meta.sites
        self.cands[start] = meta.cands
        self.llfis[start] = meta.llfis

    def instantiate(self, cpu, FL) -> dict:
        """Bind the translated blocks to one CPU's register/memory objects."""
        return self._factory(cpu, FL)

    def register_entry(self, pc: int) -> None:
        """Record the static metadata of the mid-block remainder at ``pc``.

        Execution enters block interiors at resume points and (after a
        fault) at computed return addresses.  No code is generated for
        them: the trampoline runs its usual budget/sync/trigger checks on
        this metadata and then steps the remainder on the reference loop.
        """
        self._register_meta(pc, self.end_of[pc])


class TranslationCache:
    """Process-wide LRU of translations, with optional disk persistence."""

    def __init__(self, cache_dir: str | None = None) -> None:
        self.cache_dir = cache_dir
        self._mem: OrderedDict[str, Translation] = OrderedDict()

    def translation_for(self, program: LoadedProgram) -> Translation:
        fp = getattr(program, "_translation_fp", None)
        if fp is None:
            fp = translation_fingerprint(program)
            program._translation_fp = fp
        trans = self._mem.get(fp)
        if trans is not None:
            self._mem.move_to_end(fp)
            return trans
        trans = self._load_disk(program, fp) or Translation(program, fp)
        self._persist_disk(trans)
        self._mem[fp] = trans
        while len(self._mem) > CACHE_CAPACITY:
            self._mem.popitem(last=False)
        return trans

    def _marshal_path(self, fp: str) -> str:
        return os.path.join(self.cache_dir, f"{fp}.marshal")

    def _load_disk(self, program: LoadedProgram, fp: str) -> Translation | None:
        if self.cache_dir is None:
            return None
        try:
            with open(self._marshal_path(fp), "rb") as fh:
                code_obj = marshal.load(fh)
            return Translation(program, fp, code_obj=code_obj)
        except (OSError, ValueError, EOFError, TypeError):
            return None

    def _persist_disk(self, trans: Translation) -> None:
        if self.cache_dir is None or trans.source is None:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            mpath = self._marshal_path(trans.fingerprint)
            tmp = f"{mpath}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                marshal.dump(trans.code, fh)
            os.replace(tmp, mpath)
            spath = os.path.join(self.cache_dir, f"{trans.fingerprint}.py")
            with open(f"{spath}.tmp.{os.getpid()}", "w") as fh:
                fh.write(trans.source)
            os.replace(f"{spath}.tmp.{os.getpid()}", spath)
        except OSError:
            pass  # persistence is best-effort; in-memory cache still works


#: Default process-wide cache (no disk persistence until configured).
GLOBAL_CACHE = TranslationCache()

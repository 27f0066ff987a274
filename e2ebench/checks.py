"""Output checks.  Each returns the number of experiments it could not
confirm as correctly reported, plus human-readable problems; nothing here
fails silently."""

from __future__ import annotations

from suite import Workload

HEADER = "workload,tool,n,crash,soc,benign,total_cycles,total_candidates"


def parse_csv(text: str) -> tuple[str, dict[tuple[str, str], list[str]], list[str]]:
    """Header, rows by (workload, tool), and duplicate-row problems."""
    lines = text.strip("\n").split("\n") if text.strip() else []
    header = lines[0] if lines else ""
    rows: dict[tuple[str, str], list[str]] = {}
    problems = []
    for line in lines[1:]:
        fields = line.split(",")
        key = tuple(fields[:2]) if len(fields) >= 2 else (line, "")
        if key in rows:
            problems.append(f"duplicate row {line!r}")
        rows[key] = fields
    return header, rows, problems


def check_csv(text: str, wl: Workload) -> tuple[int, list[str]]:
    """The CSV has every cell, and each row's counts sum to n."""
    header, rows, problems = parse_csv(text)
    if header != HEADER:
        return wl.experiments, [f"bad CSV header {header!r}"]
    failed = wl.n * len(problems)
    for cell in wl.cells:
        fields = rows.get(cell)
        if fields is None:
            failed += wl.n
            problems.append(f"missing row {'/'.join(cell)}")
            continue
        try:
            n, crash, soc, benign = (int(f) for f in fields[2:6])
            float(fields[6]), int(fields[7])
            ok = len(fields) == 8 and n == wl.n and crash + soc + benign == n
        except (ValueError, IndexError):
            ok = False
        if not ok:
            failed += wl.n
            problems.append(f"bad row {','.join(fields)!r} (n={wl.n})")
    extra = set(rows) - set(wl.cells)
    failed += wl.n * len(extra)
    problems += [f"unexpected row {'/'.join(k)}" for k in sorted(extra)]
    return min(failed, wl.experiments), problems


def compare_csv(reference: str, text: str, wl: Workload, what: str) -> tuple[int, list[str]]:
    """``text`` must be byte-identical to ``reference``; every cell whose
    row differs counts its experiments as failed."""
    if text == reference:
        return 0, []
    _, ref_rows, _ = parse_csv(reference)
    _, rows, _ = parse_csv(text)
    differing = [c for c in wl.cells if ref_rows.get(c) != rows.get(c)]
    failed = wl.n * len(differing) or wl.experiments
    return failed, [
        f"{what}: CSV differs from the first run "
        f"({', '.join('/'.join(c) for c in differing) or 'layout'})"
    ]


def check_goldens(goldens: dict[str, list[str]], reference: dict[str, dict],
                  wl: Workload) -> tuple[list[tuple[str, str]], list[str]]:
    """Every cell's golden output equals the IR interpreter's output on the
    frontend's unoptimised IR.  Returns the failing cells."""
    bad, problems = [], []
    for program, tool in wl.cells:
        ref = reference.get(program)
        got = goldens.get(f"{program}/{tool}")
        if ref is None or ref["trap"] is not None or ref["exit_code"] != 0:
            bad.append((program, tool))
            problems.append(f"{program}: no clean interpreter reference")
        elif got != ref["output"]:
            bad.append((program, tool))
            problems.append(
                f"{program}/{tool}: golden output {got!r} != interpreter "
                f"{ref['output']!r}")
    return bad, problems


def cycles_by_tool(text: str) -> dict[str, float]:
    _, rows, _ = parse_csv(text)
    out: dict[str, float] = {}
    for (_, tool), fields in rows.items():
        try:
            out[tool] = out.get(tool, 0.0) + float(fields[6])
        except (ValueError, IndexError):
            pass
    return out

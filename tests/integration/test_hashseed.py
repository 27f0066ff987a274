"""Campaign output must not depend on Python's string-hash seed.

Set and dict iteration over strings follows ``PYTHONHASHSEED``; a
hash-order dependence anywhere in compile, injection or reporting would
change the CSV between two otherwise identical runs.  The ``-j 2`` run
(coordinator plus two worker processes) must print the same bytes too.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _campaign_csv(hash_seed: str, *extra: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import campaign_main; "
            "sys.exit(campaign_main(sys.argv[1:]))",
            "-w", "EP", "-n", "8", "-q", *extra,
        ],
        env=env, capture_output=True, timeout=300, check=True,
    )
    return proc.stdout


def test_campaign_csv_independent_of_hash_seed():
    first = _campaign_csv("1")
    assert first.count(b"\n") > 1
    assert _campaign_csv("4242") == first
    for hash_seed in ("1", "4242"):
        assert _campaign_csv(hash_seed, "-j", "2") == first

"""Golden CLI snapshots: every subcommand on the bundled samples, compared
byte for byte with outputs stored in ``tests/golden/``.

A change of stored form or algorithm must not move a single byte of
output; regenerate with ``tests/golden/regenerate.py`` only when an
output is meant to change.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from ssc_toolkit.cli import main

from golden.regenerate import case_args

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = GOLDEN.parent.parent / "samples"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def test_every_subcommand_is_covered():
    commands = {c["argv"][0] for c in CASES}
    assert commands == {"check", "robustness", "schedules", "combine", "oracle"}
    flat = [" ".join(c["argv"]) for c in CASES]
    assert any("--mode add" in a for a in flat) and any("--mode sub" in a for a in flat)
    assert any(a.startswith("combine") and "--mode dag" in a for a in flat)
    assert any(a.startswith("oracle") and "--ltv" in a for a in flat)
    text = [a for a in flat if "--format text" in a]
    assert {a.split()[0] for a in text} == {"check", "robustness", "schedules", "combine", "oracle"}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_snapshot(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case_args(case["argv"], SAMPLES))
    assert code == case["exit"]
    assert err.getvalue() == case["stderr"].replace("{samples}", str(SAMPLES))
    assert out.getvalue() == (GOLDEN / f"{case['name']}.out").read_text()

"""Regenerate the golden CLI snapshots in this directory.

Run from the root of a checkout, against the sources whose output should
become the reference:

    PYTHONPATH=src python tests/golden/regenerate.py

Every case runs ``ssc_toolkit.cli.main`` in-process on the bundled
``samples/`` in machine format.  Its standard output goes to
``<name>.out``; ``cases.json`` lists each case's arguments (``{samples}``
stands for the samples directory), its exit code and its standard error.  ``test_golden.py``
replays the cases and compares the output byte for byte, so regenerate
only on purpose, when an output is meant to change.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from ssc_toolkit.cli import main

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent.parent / "samples"

NETS = ("chain3", "path3_bidir", "ring4_chord", "ring6_chord")

CASES: dict[str, list[str]] = {}
for net in NETS:
    doc = f"{{samples}}/{net}.net"
    CASES[f"check-{net}"] = ["check", doc]
    CASES[f"check-{net}-lowest-forced"] = ["check", doc, "--policy", "lowest-forced"]
    CASES[f"robustness-add-{net}"] = ["robustness", doc, "--mode", "add"]
    CASES[f"robustness-sub-{net}"] = ["robustness", doc, "--mode", "sub"]
    CASES[f"schedules-{net}"] = ["schedules", doc]
CASES.update({
    "check-ring6_chord-explicit": [
        "check", "{samples}/ring6_chord.net",
        "--policy", "explicit:{samples}/ring6_chord_forces.txt",
    ],
    "robustness-add-ring6_chord-sampled": [
        "robustness", "{samples}/ring6_chord.net", "--mode", "add", "--budget", "1000", "--seed", "3",
    ],
    "schedules-sequences-general": [
        "schedules", "{samples}/path3_bidir.net", "{samples}/ring4_chord.net",
    ],
    "schedules-sequences-dag": [
        "schedules", "{samples}/chain3.net", "{samples}/chain3.net", "--mode", "dag",
    ],
    "combine-general-default": [
        "combine", "{samples}/path3_bidir.net", "{samples}/ring4_chord.net",
    ],
    "combine-general-inter": [
        "combine", "{samples}/path3_bidir.net", "{samples}/ring4_chord.net",
        "--sequence", "2,1,1,2", "--inter-edges", "{samples}/inter_path_ring.txt",
    ],
    "combine-dag-default": [
        "combine", "{samples}/chain3.net", "{samples}/chain3.net", "--mode", "dag",
    ],
    "combine-dag-explicit": [
        "combine", "{samples}/chain3.net", "{samples}/chain3.net", "{samples}/chain3.net",
        "--mode", "dag", "--sequence", "2,1,3,1,2,3,2,3,1",
    ],
    "combine-dag-cyclic": [
        "combine", "{samples}/chain3.net", "{samples}/path3_bidir.net", "--mode", "dag",
    ],
    "oracle-ring6_chord": ["oracle", "{samples}/ring6_chord.net", "--trials", "50", "--seed", "2"],
    "oracle-chain3-ltv": [
        "oracle", "{samples}/chain3.net", "--ltv", "--schedule", "{samples}/chain3_varying.sched",
    ],
    # a control set that is not a zero forcing set: the negative verdicts
    "check-ring6_stalled": ["check", "{samples}/ring6_stalled.net"],
    "robustness-add-ring6_stalled": ["robustness", "{samples}/ring6_stalled.net", "--mode", "add"],
    "robustness-sub-ring6_stalled": ["robustness", "{samples}/ring6_stalled.net", "--mode", "sub"],
    "schedules-ring6_stalled": ["schedules", "{samples}/ring6_stalled.net"],
    "oracle-ring6_stalled": [
        "oracle", "{samples}/ring6_stalled.net", "--trials", "50", "--seed", "2",
    ],
})


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one machine-format CLI call."""
    args = [a.replace("{samples}", str(SAMPLES)) for a in argv] + ["--format", "machine"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def regenerate() -> None:
    manifest = []
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        (HERE / f"{name}.out").write_text(out)
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": err})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()

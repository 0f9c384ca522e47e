"""Regenerate the golden CLI snapshots in this directory.

Run from the root of a checkout, against the sources whose output should
become the reference:

    PYTHONPATH=src python tests/golden/regenerate.py

Every case runs ``ssc_toolkit.cli.main`` in-process on the bundled
``samples/``, in machine format unless its arguments name a format.  Its
standard output goes to ``<name>.out``; ``cases.json`` lists each case's
arguments (``{samples}`` stands for the samples directory), its exit code
and its standard error (with ``{samples}`` again for that directory).  ``test_golden.py`` replays the cases and
compares the output byte for byte, so regenerate only on purpose, when
an output is meant to change.
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
# named12's names sort apart from their ids (v10 before v2), and one of
# them holds a quote, a backslash and a non-ASCII letter
ALL_NETS = (*NETS, "named12")
TEXT = ["--format", "text"]

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
    # controls that reach one node of three: no trial is drawn
    "oracle-chain3_sink": ["oracle", "{samples}/chain3_sink.net", "--trials", "50", "--seed", "2"],
    # the policy is read only once the controls are known to force everything
    "check-ring6_stalled-unknown-policy": [
        "check", "{samples}/ring6_stalled.net", "--policy", "bogus",
    ],
    "check-ring6_stalled-explicit": [
        "check", "{samples}/ring6_stalled.net",
        "--policy", "explicit:{samples}/ring6_chord_forces.txt",
    ],
    "robustness-add-ring6_stalled-explicit": [
        "robustness", "{samples}/ring6_stalled.net", "--mode", "add",
        "--policy", "explicit:{samples}/ring6_chord_forces.txt",
    ],
    "check-ring6_chord-unknown-policy": ["check", "{samples}/ring6_chord.net", "--policy", "bogus"],
    # the first listed force is not possible: reported by file and in names
    "check-ring6_chord-impossible-force": [
        "check", "{samples}/ring6_chord.net",
        "--policy", "explicit:{samples}/ring6_chord_bad_forces.txt",
    ],
    "robustness-add-ring6_chord-impossible-force": [
        "robustness", "{samples}/ring6_chord.net", "--mode", "add",
        "--policy", "explicit:{samples}/ring6_chord_bad_forces.txt",
    ],
})
named = "{samples}/named12.net"
CASES.update({
    "check-named12": ["check", named],
    "check-named12-lowest-forced": ["check", named, "--policy", "lowest-forced"],
    "robustness-add-named12": ["robustness", named, "--mode", "add"],
    "robustness-sub-named12": ["robustness", named, "--mode", "sub"],
    "robustness-add-named12-no-verify": ["robustness", named, "--mode", "add", "--no-verify"],
    "robustness-sub-named12-no-verify": ["robustness", named, "--mode", "sub", "--no-verify"],
    "schedules-named12": ["schedules", named, "--limit", "20"],
    # all 47 schedules: each 9-force list runs through the walk's white-set part
    "schedules-named12-all": ["schedules", named, "--limit", "1000"],
    # 16 is the smallest limit whose last schedule the walk replays from a
    # record of its last six forces, rather than walking them again
    "schedules-chains24": ["schedules", "{samples}/chains24.net", "--limit", "16"],
    "combine-general-named12": ["combine", named, named],
    "combine-general-named12-path3": ["combine", named, "{samples}/path3_bidir.net"],
    "combine-dag-named12": ["combine", named, named, "--mode", "dag"],
    "combine-dag-named12-chain3": [
        "combine", "{samples}/chain3.net", named, named, "--mode", "dag",
    ],
})
path3, ring4, chain3 = (
    f"{{samples}}/{net}.net" for net in ("path3_bidir", "ring4_chord", "chain3")
)
CASES.update({
    "combine-general-three": ["combine", path3, ring4, chain3],
    # path3 and ring4 each need 2 entries; 1,2,1 gives ring4 only one
    "combine-general-bad-counts": ["combine", path3, ring4, "--sequence", "1,2,1"],
    "combine-dag-adjacent": [
        "combine", chain3, chain3, "--mode", "dag", "--sequence", "1,1,2,2,1,2",
    ],
    "combine-dag-bad-counts": ["combine", chain3, chain3, "--mode", "dag", "--sequence", "1,2,1,2"],
    # T_max(1.v1)=2 < T(2.u3)=5: the whole report is the stderr line
    "combine-general-rejected": [
        "combine", path3, ring4, "--sequence", "2,1,1,2",
        "--inter-edges", "{samples}/inter_rejected.txt",
    ],
    "schedules-sequences-three": ["schedules", path3, ring4, chain3, "--limit", "3"],
})
# The same calls in text format, where the rows are written as lines.
for net in (*ALL_NETS, "ring6_stalled"):
    doc = f"{{samples}}/{net}.net"
    CASES[f"check-{net}-text"] = ["check", doc, *TEXT]
    for mode in ("add", "sub"):
        CASES[f"robustness-{mode}-{net}-text"] = ["robustness", doc, "--mode", mode, *TEXT]
        CASES[f"robustness-{mode}-{net}-no-verify-text"] = [
            "robustness", doc, "--mode", mode, "--no-verify", *TEXT,
        ]
for name in (
    "combine-general-default", "combine-general-inter", "combine-dag-default",
    "combine-dag-explicit", "combine-dag-cyclic", "combine-general-named12",
    "combine-general-named12-path3", "combine-dag-named12", "combine-dag-named12-chain3",
    "check-ring6_chord-explicit", "check-ring6_stalled-unknown-policy",
    "robustness-add-ring6_chord-sampled", "combine-general-rejected",
    *(f"schedules-{net}" for net in NETS),
    "schedules-named12", "schedules-named12-all", "schedules-chains24", "schedules-ring6_stalled",
    "schedules-sequences-general",
    "schedules-sequences-dag", "combine-general-three", "combine-general-bad-counts",
    "combine-dag-adjacent", "combine-dag-bad-counts", "schedules-sequences-three",
    "oracle-ring6_chord", "oracle-ring6_stalled", "oracle-chain3_sink", "oracle-chain3-ltv",
):
    CASES[f"{name}-text"] = [*CASES[name], *TEXT]


def case_args(argv: list[str], samples: Path) -> list[str]:
    """A case's command line: machine format unless the case names one."""
    args = [a.replace("{samples}", str(samples)) for a in argv]
    return args if "--format" in args else [*args, "--format", "machine"]


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call."""
    args = case_args(argv, SAMPLES)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def regenerate() -> None:
    manifest = []
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        (HERE / f"{name}.out").write_text(out)
        err = err.replace(str(SAMPLES), "{samples}")
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": err})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()

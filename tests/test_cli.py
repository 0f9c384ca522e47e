from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ssc_toolkit import cli, forcing, graphs, oracle
from ssc_toolkit.cli import main
from ssc_toolkit.documents import NetworkDocument, emit_document, parse_document
from ssc_toolkit.forcing import (
    enumerate_forcing_schedules,
    is_zfs,
    schedule_gamma,
    schedule_leaves,
)
from ssc_toolkit.graphs import ConsistencyError, DiGraph, mask_nodes
from ssc_toolkit.synthesis import TimeFunction

from conftest import digraphs, timed_partitions
from reference import (
    all_digraphs,
    brute_force_additive,
    brute_force_subtractive,
    incremental_schedule_writer,
    naive_is_zfs,
    nonempty_subsets,
    recursive_enumeration,
    unreplayed_leaves,
    walked_intervals,
)
from test_forcing import chains_plus_optional_edges

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

NON_ZFS = """\
NODES
v1 v2 v3
EDGES
v1 v2
v2 v3
CONTROLS
v3
"""

PATH40 = "".join([
    "NODES\n", " ".join(f"v{i}" for i in range(1, 41)), "\nEDGES\n",
    *(f"v{i} v{i + 1}\n" for i in range(1, 40)),
    "CONTROLS\nv1\nCHAINS\n", " ".join(f"v{i}" for i in range(1, 41)), "\nTIMES\n",
    *(f"v{i} {i}\n" for i in range(1, 41)),
])


def run(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestCheck:
    def test_ring_verdict_and_intervals(self, capsys):
        rc, out = run(capsys, "check", str(SAMPLES / "ring6_chord.net"))
        assert rc == 0
        assert "ZFS: yes" in out
        assert "v1:[1,1]" in out and "v6:[2,5]" in out and "v2:[1,2]" in out

    def test_explicit_policy_file(self, capsys):
        rc, out = run(
            capsys,
            "check",
            str(SAMPLES / "ring6_chord.net"),
            "--policy",
            f"explicit:{SAMPLES / 'ring6_chord_forces.txt'}",
        )
        assert rc == 0
        assert "chains: v1>v6 | v2>v3>v4>v5" in out

    def test_non_zfs_exits_2_with_stall_set(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text(NON_ZFS)
        rc, out = run(capsys, "check", str(doc))
        assert rc == 2
        assert "ZFS: no" in out
        assert "stalled white set = {v1 v2}" in out

    def test_missing_controls_is_input_error(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text("NODES\na\nEDGES\n")
        assert run(capsys, "check", str(doc))[0] == 3

    def test_parse_error_is_input_error(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text("NODES\na\nEDGES\na bogus\n")
        assert run(capsys, "check", str(doc))[0] == 3

    def test_machine_output_reparses(self, capsys):
        rc, out = run(capsys, "check", str(SAMPLES / "ring6_chord.net"), "--format", "machine")
        assert rc == 0
        data = json.loads(out)
        assert data["zfs"] is True
        assert data["intervals"]["v6"] == [2, 5]
        assert data["chains"] == [["v1", "v6"], ["v2", "v3", "v4", "v5"]]

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_crlf_breaks_and_a_non_ascii_name_read_as_the_lf_copy(self, capsys, tmp_path, fmt):
        text = (SAMPLES / "ring6_chord.net").read_bytes().decode().replace("v6", "vé")
        outs = []
        for name, brk in (("lf.net", "\n"), ("crlf.net", "\r\n")):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", brk).encode())
            outs.append(run(capsys, "check", str(path), "--format", fmt))
        assert outs[0] == outs[1]
        rc, out = outs[0]
        assert rc == 0 and ("vé" if fmt == "text" else "v\\u00e9") in out


class TestImpossibleForceList:
    """An explicit force list the forcing rule does not allow is an input
    error that names the file and the force as written in the document."""

    @pytest.mark.parametrize("command", [["check"], ["robustness", "--mode", "add"]])
    @pytest.mark.parametrize("forces, message", [
        # v5 has four white out-neighbours at step 1 and still has at step 2
        ('v5 v"\\\xe4\n', 'force v5 -> v"\\\xe4 is not possible at step 1'),
        ('v11 v10\nv5 v"\\\xe4\n', 'force v5 -> v"\\\xe4 is not possible at step 2'),
        ("v11 v10\n", "explicit force list ends while forces are still possible"),
    ])
    def test_named_error_exits_3(self, capsys, tmp_path, command, forces, message):
        listed = tmp_path / "forces.txt"
        listed.write_text(forces)
        doc = str(SAMPLES / "named12.net")
        rc = main([command[0], doc, *command[1:], "--policy", f"explicit:{listed}"])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == f"error: {listed}: {message}\n"


class TestStalledControls:
    """A control set that stalls is a negative verdict (exit 2) whichever
    command meets it: ``robustness`` and ``schedules`` name the document and
    the stalled white set in the document's names, in id order, as ``check``
    lists it.  A stall is reported before any error in reading or replaying
    a policy other than the built-in two."""

    # named12's node 6 is named with a quote, a backslash and a non-ASCII letter
    STALLED = ["v1", "v2", "v3", "v4", 'v"\\\xe4', "v7", "v8", "v10", "v11", "v12"]

    @pytest.fixture
    def stalled12(self, tmp_path) -> str:
        """named12 controlled from v5 and v9 only, without its chains and times."""
        text = (SAMPLES / "named12.net").read_text().split("CHAINS")[0]
        doc = tmp_path / "stalled12.net"
        doc.write_text(text.replace("v5 v9 v11", "v5 v9"))
        return str(doc)

    @pytest.mark.parametrize("fmt", ["machine", "text"])
    @pytest.mark.parametrize("command", [
        ["robustness", "--mode", "add"],
        ["robustness", "--mode", "sub", "--no-verify"],
        ["robustness", "--mode", "add", "--policy", "lowest-forced"],
        ["robustness", "--mode", "sub", "--policy", "explicit:{forces}"],
        ["robustness", "--mode", "add", "--policy", "explicit:{missing}"],
        ["robustness", "--mode", "add", "--policy", "bogus"],
        ["schedules"],
        ["schedules", "--limit", "1"],
    ])
    def test_negative_verdict_names_the_stalled_set(
        self, capsys, tmp_path, stalled12, command, fmt
    ):
        forces = tmp_path / "forces.txt"
        forces.write_text('v5 v"\\\xe4\n')  # not possible: v5 has four white out-neighbours
        paths = {"forces": forces, "missing": tmp_path / "missing.txt"}
        args = [a.format(**paths) for a in command[1:]]
        rc = main([command[0], stalled12, *args, "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            f"not a zero forcing set: {stalled12}: stalled white set = {{{' '.join(self.STALLED)}}}\n"
        )

    def test_check_lists_the_same_set(self, capsys, stalled12):
        rc, out = run(capsys, "check", stalled12, "--format", "machine")
        assert rc == 2 and json.loads(out)["stalled_white"] == self.STALLED


# the bundled samples whose controls are a zero forcing set
ZFS_SAMPLES = ("chain3", "path3_bidir", "ring4_chord", "ring6_chord", "named12")


@pytest.mark.parametrize("net", ZFS_SAMPLES)
@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_robustness_writes_the_intervals_check_writes(capsys, net, fmt):
    """``check`` writes its schedule's intervals from the forces it ran, and
    ``robustness`` from its witness; both are one time function."""
    doc = str(SAMPLES / f"{net}.net")
    intervals = []
    for argv in (["check", doc], ["robustness", doc, "--mode", "add", "--no-verify"]):
        rc, out = run(capsys, *argv, "--format", fmt)
        assert rc == 0
        if fmt == "machine":
            intervals.append(json.loads(out)["intervals"])
        else:
            (line,) = [s for s in out.splitlines() if s.startswith("intervals: ")]
            intervals.append(line)
    assert intervals[0] == intervals[1]


class TestRobustness:
    def test_additive_with_verification(self, capsys):
        rc, out = run(
            capsys, "robustness", str(SAMPLES / "ring6_chord.net"), "--mode", "add"
        )
        assert rc == 0
        assert "count: 16 (bound 16)" in out
        assert "verification: pass (exhaustive, 65536 subsets)" in out

    def test_subtractive_machine(self, capsys):
        rc, out = run(
            capsys,
            "robustness",
            str(SAMPLES / "ring6_chord.net"),
            "--mode",
            "sub",
            "--format",
            "machine",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["count"] == data["bound"] == 10
        assert data["verification"]["passed"] is True

    def test_non_zfs_exits_2(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text(NON_ZFS)
        assert run(capsys, "robustness", str(doc), "--mode", "add")[0] == 2


class TestSortedPairs:
    @pytest.mark.parametrize("machine", [True, False], ids=["machine", "text"])
    @pytest.mark.parametrize("moves", [True, False], ids=["per-row", "unpacked"])
    def test_pairs_sorted_by_name_on_both_paths(self, monkeypatch, machine, moves):
        # v10 and v11 sort before v2, and one name needs JSON escapes
        n = 12
        names = [f"v{v}" for v in range(1, n + 1)]
        names[4] = 'v5"\\\u00e4'
        rng = np.random.default_rng(12)
        edges = {(int(u), int(v)) for u, v in rng.integers(1, n + 1, size=(70, 2))}
        g = DiGraph(n, edges | {(3, 3)})
        assert graphs._moves_bits(g.edge_count, n) is False  # the bulk path by default
        monkeypatch.setattr(graphs, "_moves_bits", lambda ones, n: moves)
        written = cli._written_names(names, machine)
        out = "".join(cli._sorted_pairs(g, names, written, machine))
        pairs = sorted((names[u - 1], names[v - 1]) for u, v in g.edges)
        if machine:
            assert out == json.dumps([list(p) for p in pairs])
        else:
            assert out == "".join(f"  {a} {b}\n" for a, b in pairs)


class TestCombine:
    def test_general_mode_reproduces_worked_layout(self, capsys):
        rc, out = run(
            capsys,
            "combine",
            str(SAMPLES / "path3_bidir.net"),
            str(SAMPLES / "ring4_chord.net"),
            "--sequence",
            "2,1,1,2",
            "--inter-edges",
            str(SAMPLES / "inter_path_ring.txt"),
            "--format",
            "machine",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["max_inter_count"] == data["max_inter_bound"] == 20
        assert data["installed_inter_edges"] == 16
        combined = parse_document(data["document"])
        assert {combined.name_of(v) for v in combined.controls} == {"1.v1", "2.u1", "2.u2"}
        times = {combined.name_of(v): t for v, t in combined.times.items()}
        assert times == {
            "1.v1": 1, "1.v2": 3, "1.v3": 4, "2.u1": 1, "2.u2": 1, "2.u3": 5, "2.u4": 2,
        }

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_repeated_inter_edge_is_counted_once(self, capsys, tmp_path, fmt):
        inter = tmp_path / "inter.txt"
        inter.write_text("1.v1 2.u1\n1.v1 2.u1\n")
        rc, out = run(
            capsys, "combine", str(SAMPLES / "path3_bidir.net"), str(SAMPLES / "ring4_chord.net"),
            "--sequence", "2,1,1,2", "--inter-edges", str(inter), "--format", fmt,
        )
        assert rc == 0
        if fmt == "machine":
            data = json.loads(out)
            assert data["installed_inter_edges"] == 1
            combined = parse_document(data["document"])
        else:
            assert "installed inter edges: 1\n" in out
            combined = parse_document(out.split("combined document:\n")[1])
        ids = combined.node_ids
        assert combined.network.has_edge(ids["1.v1"], ids["2.u1"])
        assert combined.network.edge_count == 4 + 10 + 1

    def test_rejected_edge_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "inter.txt"
        bad.write_text("1.v1 2.u3\n")  # tmax(v1)=2 < t(u3)=5
        rc = main(
            [
                "combine",
                str(SAMPLES / "path3_bidir.net"),
                str(SAMPLES / "ring4_chord.net"),
                "--sequence",
                "2,1,1,2",
                "--inter-edges",
                str(bad),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "T_max(1.v1)=2 < T(2.u3)=5" in err

    def test_default_sequence_is_first_valid(self, capsys):
        rc, out = run(
            capsys,
            "combine",
            str(SAMPLES / "path3_bidir.net"),
            str(SAMPLES / "ring4_chord.net"),
            "--format",
            "machine",
        )
        assert rc == 0
        assert json.loads(out)["sequence"] == [1, 1, 2, 2]

    def test_dag_mode(self, capsys, tmp_path):
        d1 = tmp_path / "d1.net"
        d1.write_text("NODES\na b\nEDGES\nb a\n")
        d2 = tmp_path / "d2.net"
        d2.write_text("NODES\nx\n")
        rc, out = run(
            capsys, "combine", str(d1), str(d2), "--mode", "dag",
            "--sequence", "1,2,1", "--format", "machine",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["control"] == "1.a"
        combined = parse_document(data["document"])
        assert [combined.name_of(v) for v in combined.controls] == ["1.a"]

    def test_dag_mode_infeasible_exits_2(self, capsys, tmp_path):
        d1 = tmp_path / "d1.net"
        d1.write_text("NODES\na b c\n")
        d2 = tmp_path / "d2.net"
        d2.write_text("NODES\nx\n")
        assert main(["combine", str(d1), str(d2), "--mode", "dag"]) == 2
        capsys.readouterr()


    @pytest.mark.parametrize("mode, sequence, message", [
        ("general", "9,1,2,2", "sequence entry 9 is not a document number in 1..2"),
        ("general", "2,0,1,2", "sequence entry 0 is not a document number in 1..2"),
        ("dag", "1,2,1,2,1,3", "sequence entry 3 is not a document number in 1..2"),
        ("dag", "G1,G0", "sequence entry 0 is not a document number in 1..2"),
        ("general", "GG1,gG2,1,2", "bad sequence entry 'GG1'"),
    ])
    def test_bad_sequence_entry_is_input_error(self, capsys, mode, sequence, message):
        docs = ["path3_bidir.net", "ring4_chord.net"] if mode == "general" else ["chain3.net"] * 2
        rc = main(["combine", *(str(SAMPLES / d) for d in docs), "--mode", mode,
                   "--sequence", sequence])
        assert rc == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode, docs, rc, err", [
        ("general", ["path3_bidir.net", "ring4_chord.net"], 3,
         "error: sequence repetitions [1, 1] do not match the required counts [2, 2]"),
        ("dag", ["chain3.net", "chain3.net"], 2,
         "infeasible: sequence repetitions [1, 1] do not match the block sizes [3, 3]"),
    ])
    def test_wrong_repetitions(self, capsys, mode, docs, rc, err):
        argv = ["combine", *(str(SAMPLES / d) for d in docs), "--mode", mode, "--sequence", "1,2"]
        assert main(argv) == rc
        assert capsys.readouterr() == ("", err + "\n")


class TestReadme:
    def test_every_example_command_exits_0(self, capsys, monkeypatch):
        """Each ``ssc-toolkit`` line of README's ``sh`` blocks, run from the
        repository root."""
        root = SAMPLES.parent
        blocks = re.findall(r"^```sh\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("ssc-toolkit ")]
        assert commands
        monkeypatch.chdir(root)
        failed = []
        for argv in commands:
            rc, err = main(argv), capsys.readouterr().err
            if rc:
                failed.append((" ".join(argv), rc, err))
        assert failed == []


class TestOracle:
    def test_lti_consistent(self, capsys):
        rc, out = run(
            capsys, "oracle", str(SAMPLES / "ring6_chord.net"),
            "--trials", "25", "--seed", "7", "--format", "machine",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["zfs"] is True and data["consistent"] is True
        assert data["full_rank"] == data["trials"] == 25
        assert data["seed"] == 7

    def test_lti_non_zfs_reports_stall(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text(NON_ZFS)
        rc, out = run(capsys, "oracle", str(doc), "--trials", "10", "--format", "machine")
        assert rc == 0
        data = json.loads(out)
        assert data["zfs"] is False and data["stalled_white"] == ["v1", "v2"]
        assert data["unreachable"] == ["v1", "v2"] and data["full_rank"] == 0
        assert data["consistent"] is True and data["witness_rank"] < 3

    def test_ltv_schedule(self, capsys):
        rc, out = run(
            capsys, "oracle", str(SAMPLES / "chain3.net"), "--ltv",
            "--schedule", str(SAMPLES / "chain3_varying.sched"), "--format", "machine",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["gramian_rank"] == 3
        assert data["controls_cover_sources"] is True and data["consistent"] is True

    def test_long_path_lti_and_one_piece_ltv(self, capsys, tmp_path):
        doc = tmp_path / "path40.net"
        doc.write_text(PATH40)
        rc, out = run(capsys, "oracle", str(doc), "--trials", "20", "--format", "machine")
        assert rc == 0
        assert json.loads(out)["full_rank"] == 20
        sched = tmp_path / "one.sched"
        sched.write_text("BREAKPOINTS\n0 1\nINTERVAL\nv1 v1\nv20 v20\n")
        rc, out = run(
            capsys, "oracle", str(doc), "--ltv", "--schedule", str(sched), "--format", "machine"
        )
        assert rc == 0
        assert json.loads(out)["gramian_rank"] == 40

    def test_numerical_failure_exits_4(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "verify_ssc_numeric", fail)
        assert main(["oracle", str(SAMPLES / "ring6_chord.net")]) == 4
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_ltv_requires_schedule(self, capsys):
        assert main(["oracle", str(SAMPLES / "chain3.net"), "--ltv"]) == 3
        capsys.readouterr()

    def test_schedule_requires_ltv(self, capsys):
        """A schedule is not silently ignored by the LTI oracle."""
        rc = main(["oracle", str(SAMPLES / "chain3.net"),
                   "--schedule", str(SAMPLES / "chain3_varying.sched")])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "--schedule needs --ltv" in err

    def test_trials_rejected_with_ltv(self, capsys):
        """The LTV oracle draws one weight matrix per piece, so a trial
        count is not silently ignored."""
        rc = main(["oracle", str(SAMPLES / "chain3.net"), "--ltv", "--trials", "5",
                   "--schedule", str(SAMPLES / "chain3_varying.sched")])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "--trials needs the LTI oracle, not --ltv" in err

    @pytest.mark.parametrize("breakpoints", ["0 nan 2", "0 1 inf"])
    def test_ltv_non_finite_breakpoint_exits_3(self, capsys, tmp_path, breakpoints):
        doc = tmp_path / "chain3_v2.net"
        doc.write_text((SAMPLES / "chain3.net").read_text().replace("CONTROLS\nv1", "CONTROLS\nv2"))
        sched = tmp_path / "bad.sched"
        sched.write_text(f"BREAKPOINTS\n{breakpoints}\nINTERVAL\nINTERVAL\n")
        rc = main(["oracle", str(doc), "--ltv", "--schedule", str(sched)])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "gramian rank" not in out and "breakpoints must be finite" in err

    def test_ltv_inadmissible_schedule_edge(self, capsys, tmp_path):
        sched = tmp_path / "bad.sched"
        sched.write_text("BREAKPOINTS\n0 1\nINTERVAL\nv1 v3\n")  # skips the frontier
        rc = main(["oracle", str(SAMPLES / "chain3.net"), "--ltv", "--schedule", str(sched)])
        assert rc == 3
        assert "edges [('v1', 'v3')] are not admissible for this family" in capsys.readouterr().err

    def test_ltv_inadmissible_edges_are_named_as_written(self, capsys, tmp_path):
        """Named as in the document and sorted by name, which is not id
        order here: v"\\ä is node 6 with tmax 4, and v3 has time 9."""
        sched = tmp_path / "bad.sched"
        sched.write_text(
            'BREAKPOINTS\n0 1\nINTERVAL\nv4 v12\nv10 v2\nv"\\ä v3\n', encoding="utf-8"
        )
        rc = main(["oracle", str(SAMPLES / "named12.net"), "--ltv", "--schedule", str(sched)])
        err = capsys.readouterr().err
        assert rc == 3
        named = [('v"\\ä', "v3"), ("v10", "v2"), ("v4", "v12")]
        assert err == f"error: edges {named} are not admissible for this family\n"
        assert "(6, 3)" not in err

    @pytest.fixture
    def draws(self, monkeypatch) -> list:
        """One entry per weight matrix an LTV schedule draws."""
        drawn, sample = [], oracle.sample_matrix
        monkeypatch.setattr(oracle, "sample_matrix", lambda *a: drawn.append(1) or sample(*a))
        return drawn

    @pytest.mark.parametrize("control, draws_made, first_rank", [("v1", 1, 3), ("v2", 2, 2)])
    def test_ltv_draws_only_the_pieces_the_rank_reaches(
        self, capsys, tmp_path, draws, control, draws_made, first_rank
    ):
        """From v1 the first piece of the worked schedule is at full rank.
        From v2 it reaches rank 2 (its schedule cut to that piece says so),
        and the second piece adds v1."""
        doc = chain3_controlled_from(tmp_path, control)
        rc, out = run(capsys, "oracle", str(doc), "--ltv", "--schedule",
                      str(SAMPLES / "chain3_varying.sched"), "--format", "machine")
        assert rc == 0 and json.loads(out)["gramian_rank"] == 3
        assert len(draws) == draws_made
        first = tmp_path / "first.sched"
        first.write_text("BREAKPOINTS\n0 1\nINTERVAL\nv1 v1\nv3 v2\n")
        rc, out = run(capsys, "oracle", str(doc), "--ltv", "--schedule", str(first),
                      "--format", "machine")
        assert rc == 0 and json.loads(out)["gramian_rank"] == first_rank

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("breakpoints, last, message", [
        ("0 1 2", "v1 v3", "edges [('v1', 'v3')] are not admissible for this family"),
        ("0 2 2", "", "breakpoints must be strictly increasing"),
        ("0 2 1", "", "breakpoints must be strictly increasing"),
        ("0 1 inf", "", "breakpoints must be finite"),
        ("0 2 1", "v1 v3", "edges [('v1', 'v3')] are not admissible for this family"),
    ], ids=["inadmissible-last-piece", "repeated", "decreasing", "infinite", "both"])
    def test_ltv_input_errors_past_full_rank(
        self, capsys, tmp_path, draws, fmt, breakpoints, last, message
    ):
        """The first piece is at full rank from v1, and still every piece
        and then the breakpoints are checked, before any draw."""
        sched = tmp_path / "bad.sched"
        sched.write_text(f"BREAKPOINTS\n{breakpoints}\nINTERVAL\nv1 v1\nINTERVAL\n{last}\n")
        rc = main(["oracle", str(SAMPLES / "chain3.net"), "--ltv", "--schedule", str(sched),
                   "--format", fmt])
        assert (rc, *capsys.readouterr()) == (3, "", f"error: {message}\n")
        assert draws == []

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_ltv_overflowed_expm_is_a_numerical_failure(self, capsys, tmp_path, fmt, seed):
        """Over [1, 1e6] the self-loop on v3 overflows expm.  That printed
        rank 3/3 once, though v1 has no in-edge in either piece; spans of
        1, 39 and 399 give the true rank 2."""
        doc = chain3_controlled_from(tmp_path, "v2")
        sched = tmp_path / "loop.sched"
        argv = ["oracle", str(doc), "--ltv", "--schedule", str(sched), "--seed", seed,
                "--format", fmt]
        sched.write_text("BREAKPOINTS\n0 1 1e6\nINTERVAL\nv3 v3\nINTERVAL\nv3 v3\n")
        assert (main(argv), *capsys.readouterr()) == (
            4, "", "numerical failure: piece 2 on [1, 1e+06]: carried basis not finite\n"
        )
        for stop in ("2", "40", "400"):
            sched.write_text(f"BREAKPOINTS\n0 1 {stop}\nINTERVAL\nv3 v3\nINTERVAL\nv3 v3\n")
            rc, out = run(capsys, *argv)
            assert rc == 0
            assert ("gramian rank: 2/3\n" in out) if fmt == "text" else (
                json.loads(out)["gramian_rank"] == 2
            )


def chain3_controlled_from(tmp_path: Path, control: str) -> Path:
    """The bundled chain3 document with ``control`` as its one control."""
    doc = tmp_path / f"chain3_{control}.net"
    text = (SAMPLES / "chain3.net").read_text()
    doc.write_text(text.replace("CONTROLS\nv1", f"CONTROLS\n{control}"))
    return doc


# Documents for the input-error table, written to the test's directory.
INPUT_DOCS = {
    "plain.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\n",
    "bare.net": "NODES\na b\nEDGES\na b\n",
    "no-nodes.net": "NODES\nEDGES\n",
    "controls-x.net": "NODES\na b\nEDGES\na b\nCONTROLS\nx\n",
    "chains-x.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\nCHAINS\na x\n",
    "times-x.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\nCHAINS\na b\nTIMES\na 1\nx 2\n",
    "no-chains.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\nCHAINS\nTIMES\na 1\n",
    "times-one.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\nCHAINS\na b\nTIMES\na\n",
    "times-twice.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\nCHAINS\na b\nTIMES\na 1\na 1\n",
    "times-short.net": "NODES\na b\nEDGES\na b\nCONTROLS\na\nCHAINS\na b\nTIMES\na 1\n",
    "three.txt": "v1 v6 v2\n",
    "bare-end.txt": "v1 2.u1\n",
    "bad-doc.txt": "1.v1 x.v1\n",
    "one-end.txt": "1.v1\n",
    "same-doc.txt": "1.v1 1.v2\n",
}

PAIR = ["path3_bidir.net", "ring4_chord.net", "--sequence", "2,1,1,2", "--inter-edges"]


class TestInputErrors:
    """Every input error is reported on stderr, with nothing on stdout, and
    exits 3.  ``{tmp}`` stands for the directory of ``INPUT_DOCS``."""

    @pytest.mark.parametrize("argv, err", [
        (["check", "{tmp}/missing.net"],
         "error: {tmp}/missing.net: cannot read {tmp}/missing.net: No such file or directory"),
        (["check", "{tmp}"], "error: {tmp}: cannot read {tmp}: Is a directory"),
        (["check", "{tmp}/plain.net/"],
         "error: {tmp}/plain.net/: cannot read {tmp}/plain.net/: Not a directory"),
        (["combine", "chain3.net", "chain3.net", "--mode", "dag",
          "--inter-edges", "inter_path_ring.txt"],
         "error: inter-edge files apply to general mode only"),
        (["combine", "chain3.net", "{tmp}/plain.net"],
         "error: {tmp}/plain.net: general combination needs CHAINS and TIMES"),
        (["oracle", "{tmp}/plain.net", "--ltv", "--schedule", "chain3_varying.sched"],
         "error: LTV mode needs CHAINS and TIMES in the document"),
        (["schedules", "chain3.net", "{tmp}/bare.net"],
         "error: {tmp}/bare.net: needs CHAINS or CONTROLS to size the sequence"),
        (["check", "{tmp}/no-nodes.net"],
         "error: {tmp}/no-nodes.net: NODES section declares no nodes"),
        (["check", "{tmp}/controls-x.net"],
         "error: {tmp}/controls-x.net: line 6: unknown node name 'x'"),
        (["check", "{tmp}/chains-x.net"],
         "error: {tmp}/chains-x.net: line 8: unknown node name 'x'"),
        (["check", "{tmp}/times-x.net"],
         "error: {tmp}/times-x.net: line 11: unknown node name 'x'"),
        (["check", "{tmp}/no-chains.net"],
         "error: {tmp}/no-chains.net: CHAINS section declares no chains"),
        (["check", "{tmp}/times-one.net"],
         "error: {tmp}/times-one.net: line 10: a times line needs a node name and an integer"),
        (["check", "{tmp}/times-twice.net"],
         "error: {tmp}/times-twice.net: line 11: node 'a' already has a time"),
        (["check", "{tmp}/times-short.net"],
         "error: {tmp}/times-short.net: invalid times: "
         "times must be defined on exactly the chain nodes"),
        (["check", "ring6_chord.net", "--policy", "explicit:{tmp}/three.txt"],
         "error: line 1: a force line needs exactly two node names"),
        (["combine", *PAIR, "{tmp}/bare-end.txt"],
         "error: line 1: endpoint 'v1' must look like 2.u1"),
        (["combine", *PAIR, "{tmp}/bad-doc.txt"],
         "error: line 1: 'x' is not a document number"),
        (["combine", *PAIR, "{tmp}/one-end.txt"],
         "error: line 1: an inter-edge line needs exactly two endpoints"),
        (["combine", *PAIR, "{tmp}/same-doc.txt"],
         "error: line 1: inter edge 1.v1 1.v2 joins two nodes of document 1"),
    ], ids=[
        "missing-document", "directory", "file-with-trailing-slash", "dag-inter-edges", "general-without-chains", "ltv-without-chains",
        "sequences-without-chains-or-controls", "empty-nodes", "unknown-control",
        "unknown-chain-node", "unknown-timed-node", "empty-chains", "one-token-times-line",
        "node-timed-twice", "times-miss-a-chain-node", "three-name-force-line",
        "endpoint-without-document", "endpoint-with-bad-document", "one-endpoint-line",
        "intra-document-inter-edge",
    ])
    def test_input_error(self, capsys, tmp_path, argv, err):
        for name, text in INPUT_DOCS.items():
            (tmp_path / name).write_text(text)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        argv = [str(SAMPLES / a) if a.endswith((".net", ".sched", ".txt")) and "/" not in a
                else a for a in argv]
        rc = main(argv)
        out, stderr = capsys.readouterr()
        assert (rc, out, stderr) == (3, "", err.replace("{tmp}", str(tmp_path)) + "\n")

    def test_empty_sequence_when_every_node_is_a_source(self, capsys, tmp_path):
        """With n == m in every block the layout is empty, written ``-``."""
        one = tmp_path / "one.net"
        one.write_text("NODES\na b\nCHAINS\na\nb\nTIMES\na 1\nb 1\n")
        two = tmp_path / "two.net"
        two.write_text("NODES\nx\nCHAINS\nx\nTIMES\nx 1\n")
        rc, out = run(capsys, "combine", str(one), str(two), "--sequence", "-")
        assert rc == 0
        assert out == (
            "sequence: -\n"
            "installed inter edges: 0\n"
            "largest admissible inter edge-set: 4 (bound 4)\n"
            "  1.a 2.x\n  1.b 2.x\n  2.x 1.a\n  2.x 1.b\n"
            "combined document:\n"
            "NODES\n1.a 1.b 2.x\nEDGES\nCONTROLS\n1.a 1.b 2.x\n"
            "CHAINS\n1.a\n1.b\n2.x\nTIMES\n1.a 1\n1.b 1\n2.x 1\n"
        )

    def test_consistency_error_exits_4(self, capsys, monkeypatch):
        def fail(merged):
            raise ConsistencyError("enumerated 1 admissible inter edges, closed form says 2")

        monkeypatch.setattr(cli, "max_inter_edges", fail)
        rc = main(["combine", str(SAMPLES / "path3_bidir.net"), str(SAMPLES / "ring4_chord.net")])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert err == (
            "internal inconsistency: "
            "enumerated 1 admissible inter edges, closed form says 2\n"
        )


class TestSeed:
    """A negative ``--seed`` or ``--budget`` is an input error of the option
    itself, for every command that takes one and whatever path the value
    would reach."""

    @pytest.mark.parametrize("argv", [
        ["oracle", "ring6_chord.net"],
        ["oracle", "chain3.net", "--ltv", "--schedule", "chain3_varying.sched"],
        ["robustness", "ring6_chord.net", "--mode", "add"],  # exhaustive scan
        ["robustness", "ring6_chord.net", "--mode", "add", "--budget", "16"],  # sampled
    ], ids=["oracle", "oracle-ltv", "robustness-exhaustive", "robustness-sampled"])
    def test_negative_seed_exits_3(self, capsys, argv):
        argv = [str(SAMPLES / a) if a.endswith((".net", ".sched")) else a for a in argv]
        rc = main([*argv, "--seed", "-1"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "argument --seed: must be a non-negative integer, got -1" in err

    def test_negative_budget_exits_3(self, capsys):
        """Not a silent sampled scan."""
        rc = main(["robustness", str(SAMPLES / "ring6_chord.net"), "--mode", "add",
                   "--budget", "-5"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "argument --budget: must be a non-negative integer, got -5" in err

    def test_zero_budget_is_accepted(self, capsys):
        rc, out = run(capsys, "robustness", str(SAMPLES / "ring6_chord.net"), "--mode", "add",
                      "--budget", "0", "--format", "machine")
        assert rc == 0 and json.loads(out)["verification"]["exhaustive"] is False

    def test_non_integer_seed_exits_3(self, capsys):
        assert main(["oracle", str(SAMPLES / "ring6_chord.net"), "--seed", "x"]) == 3
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err

    def test_zero_seed_is_accepted(self, capsys):
        rc, out = run(capsys, "oracle", str(SAMPLES / "ring6_chord.net"), "--seed", "0",
                      "--trials", "5", "--format", "machine")
        assert rc == 0 and json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("argv", [
        ["oracle", "ring6_chord.net", "--trials", "0"],
        ["oracle", "chain3.net", "--ltv", "--schedule", "chain3_varying.sched", "--trials", "0"],
        ["schedules", "ring6_chord.net", "--limit", "0"],
        ["schedules", "path3_bidir.net", "ring4_chord.net", "--limit", "-2"],
    ], ids=["oracle", "oracle-ltv", "schedules", "sequences"])
    def test_count_below_one_exits_3(self, capsys, argv):
        flag, value = argv[-2:]
        argv = [str(SAMPLES / a) if a.endswith((".net", ".sched")) else a for a in argv]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert f"argument {flag}: must be an integer of at least 1, got {value}" in err


class TestSchedules:
    def test_forcing_schedules_listing(self, capsys):
        rc, out = run(
            capsys, "schedules", str(SAMPLES / "ring6_chord.net"), "--format", "machine"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["kind"] == "forcing" and data["count"] == 8
        firsts = {tuple(map(tuple, s["forces"])) for s in data["schedules"]}
        assert (("v1", "v6"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5")) in firsts

    def test_sequences_listing(self, capsys):
        rc, out = run(
            capsys,
            "schedules",
            str(SAMPLES / "path3_bidir.net"),
            str(SAMPLES / "ring4_chord.net"),
            "--format",
            "machine",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["count"] == 6 and data["mode"] == "general"
        assert [2, 1, 1, 2] in data["sequences"]

    @pytest.mark.parametrize("mode", ["general", "dag"])
    def test_mode_needs_several_documents(self, capsys, mode):
        rc = main(["schedules", str(SAMPLES / "chain3.net"), "--mode", mode])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == "error: --mode applies to layout sequences of several documents\n"

    def test_forcing_schedules_non_zfs_exits_2(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text(NON_ZFS)
        assert main(["schedules", str(doc)]) == 2
        capsys.readouterr()

    def test_sequences_size_from_chains_when_controls_missing(self, capsys, tmp_path):
        doc = tmp_path / "doc.net"
        doc.write_text("NODES\na b\nEDGES\na b\nCHAINS\na b\nTIMES\na 1\nb 2\n")
        rc, out = run(capsys, "schedules", str(doc), str(doc), "--format", "machine")
        assert rc == 0
        assert json.loads(out)["count"] == 2  # one occurrence each, two orderings

    def test_usage_error_exits_3(self, capsys):
        assert main(["robustness", str(SAMPLES / "ring6_chord.net")]) == 3
        capsys.readouterr()

    def test_unknown_command_exits_3(self, capsys):
        assert main(["frobnicate"]) == 3
        capsys.readouterr()


class TestPrintedAnswersByBruteForce:
    """What ``--format machine`` prints for every digraph on at most 3 nodes
    (self-loops included) and every control set, against brute force."""

    def test_every_digraph_up_to_3_nodes(self, capsys, tmp_path):
        doc = tmp_path / "g.net"

        def call(*argv):
            code = main([argv[0], str(doc), *argv[1:], "--format", "machine"])
            return code, json.loads(capsys.readouterr().out or "null")

        cases = 0
        for g in chain.from_iterable(all_digraphs(n) for n in (1, 2, 3)):
            for z in nonempty_subsets(g.nodes):
                named = NetworkDocument.from_graph(g, [f"v{v}" for v in g.nodes], z)
                doc.write_text(emit_document(named))
                zfs = naive_is_zfs(g, z)
                code, out = call("check")
                assert (code, out["zfs"]) == ((0, True) if zfs else (2, False)), (g, z)
                if not zfs:
                    continue
                for mode, brute_force in (
                    ("add", brute_force_additive), ("sub", brute_force_subtractive)
                ):
                    best, sets = brute_force(g, z)
                    code, out = call("robustness", "--mode", mode)
                    printed = frozenset((int(u[1:]), int(v[1:])) for u, v in out["edges"])
                    assert (code, out["count"]) == (0, best), (g, z, mode)
                    assert printed in sets, (g, z, mode)
                    assert out["verification"]["passed"], (g, z, mode)
                code, out = call("schedules", "--limit", "1000")
                assert code == 0, (g, z)
                assert out["schedules"] == [
                    {
                        "forces": [[f"v{w}", f"v{u}"] for w, u in forces],
                        "intervals": {
                            f"v{v}": list(interval)
                            for v, interval in walked_intervals(g.n, z, forces).items()
                        },
                    }
                    for forces in recursive_enumeration(g, z)
                ], (g, z)
                cases += 1
        assert cases == 2082


class TestScheduleWriter:
    """Forces and intervals written from the force list match what the
    schedule's time function gives, as ``json.dumps`` or the text format
    writes it; one writer fed each list's forces after the ones it shares
    with the list before writes what a fresh writer per list does."""

    NAME = st.from_regex(r'[ab%][ab1%"\\\xe9]{0,2}', fullmatch=True)

    @given(digraphs(max_n=7), st.data())
    def test_same_text_as_the_time_function(self, g: DiGraph, data):
        names = data.draw(st.lists(self.NAME, min_size=g.n, max_size=g.n, unique=True))
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        assume(is_zfs(g, z))
        for tf in enumerate_forcing_schedules(g, z, limit=10):
            named = [[names[u - 1], names[v - 1]] for u, v in tf.forces]
            by_name = {names[v - 1]: [tf.times[v], tf.tmax[v]] for v in tf.times}
            write = cli._schedule_writer(names, True, tf.gamma, g.in_masks, [(0, (), tf.forces)])
            assert next(write) == (
                json.dumps(named), json.dumps(by_name, sort_keys=True)
            )
            write = cli._schedule_writer(names, False, tf.gamma, g.in_masks, [(0, (), tf.forces)])
            assert next(write) == (
                " ".join(f"{a}>{b}" for a, b in named),
                " ".join(f"{names[v - 1]}:[{t},{tf.tmax[v]}]" for v, t in sorted(tf.times.items())),
            )

    @given(digraphs(max_n=7), st.data())
    def test_one_writer_over_the_tails_writes_what_fresh_writers_do(self, g: DiGraph, data):
        names = data.draw(st.lists(self.NAME, min_size=g.n, max_size=g.n, unique=True))
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        assume(is_zfs(g, z))
        gamma = schedule_gamma(g, z)
        for machine in (True, False):
            leaves = [
                (shared, forces[shared:-len(tail)], tail, tuple(forces))
                for shared, forces, tail in islice(schedule_leaves(g, z), 60)
            ]
            kept = [leaf[:3] for leaf in leaves]
            write = cli._schedule_writer(names, machine, gamma, g.in_masks, kept)
            for texts, (_, _, _, forces) in zip(write, leaves, strict=True):
                fresh = cli._schedule_writer(names, machine, gamma, g.in_masks, [(0, (), forces)])
                assert texts == next(fresh)


# the first 1000 schedules of samples/chains24.net, 845 of them replayed from a record
CHAINS24_DIGESTS = {
    "machine": "88bbd3352eb3fe02465c3c520834ca02282443253f34efe2de5ac62858017a86",
    "text": "a6bc2d50b1ff36e4054739d090da97939c760a75c5756deafbcd189b33b13db8",
}
NAME_POOL = ["b1", "a", "Z", "\xe9", "x", "m2", "c", "\xfc", "y9"]


class TestTailTexts:
    """``schedules`` writes a list from the runs of its prefix and the kept
    hole values of its tail; what it prints must be what the frozen
    incremental writer gives on the walk that replays nothing, list for
    list, in both formats."""

    @staticmethod
    def check(tmp: Path, g: DiGraph, z, limit: int = 1000, names=None) -> None:
        names = names or [f"v{v}" for v in g.nodes]
        doc = tmp / "doc.net"
        doc.write_text(emit_document(NetworkDocument.from_graph(g, names, z)))
        gamma = schedule_gamma(g, frozenset(z))
        leaves = list(islice(unreplayed_leaves(g, z), limit))
        for fmt in ("machine", "text"):
            write = incremental_schedule_writer(names, fmt == "machine", gamma)
            expected = [write(shared, forces[shared:]) for shared, forces in leaves]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["schedules", str(doc), "--limit", str(limit), "--format", fmt]) == 0
            out = out.getvalue()
            if fmt == "machine":
                listed = [(json.dumps(s["forces"]), json.dumps(s["intervals"], sort_keys=True))
                          for s in json.loads(out)["schedules"]]
                objects = ", ".join('{"forces": %s, "intervals": %s}' % t for t in expected)
                whole = ('{"command": "schedules", "count": %d, "kind": "forcing", '
                         '"schedules": [%s]}\n' % (len(expected), objects))
            else:
                listed = [tuple(line[2:].split("  |  ")) for line in out.splitlines()[1:]]
                whole = f"forcing schedules: {len(expected)}\n" + "".join(
                    "  %s  |  %s\n" % t for t in expected
                )
            assert listed == expected, fmt
            assert out == whole, fmt

    @pytest.mark.parametrize("n, k, seed", [
        (18, 14, 0), (18, 14, 7), (24, 13, 0), (24, 13, 5), (32, 12, 0), (32, 12, 2),
    ])
    def test_a_thousand_lists_of_benchmark_shaped_members(self, tmp_path, n, k, seed):
        self.check(tmp_path, *chains_plus_optional_edges(seed, n, k))

    def check_every_hand_off(self, tmp: Path, g: DiGraph, z, names) -> None:
        for tail in (0, 1, 2, 3, forcing._TAIL):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(forcing, "_TAIL", tail)
                self.check(tmp, g, z, limit=300, names=names[: g.n])

    @given(digraphs(max_n=9), st.data())
    def test_small_digraphs_at_every_hand_off(self, tmp_path_factory, g: DiGraph, data):
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        assume(naive_is_zfs(g, z))
        names = data.draw(st.permutations(NAME_POOL))
        self.check_every_hand_off(tmp_path_factory.mktemp("tails"), g, z, names)

    @given(timed_partitions(max_n=9), st.data())
    def test_small_family_members_at_every_hand_off(self, tmp_path_factory, tf, data):
        # the chain skeleton plus some admissible edges: its sources force
        # it, often along many lists, so that walks replay
        optional = [(u, v) for u in range(1, tf.n + 1) for v in mask_nodes(tf.admissible_rows[u])]
        extra = data.draw(st.frozensets(st.sampled_from(optional))) if optional else ()
        names = data.draw(st.permutations(NAME_POOL))
        g = tf.skeleton.add_edges(extra)
        self.check_every_hand_off(tmp_path_factory.mktemp("tails"), g, tf.chains.sources, names)

    def test_limits_that_stop_inside_a_first_visit_and_inside_a_replay(self, tmp_path):
        g, z = chains_plus_optional_edges(7, 24, 13)  # samples/chains24.net
        leaves = [(shared, tail) for shared, _, tail in islice(schedule_leaves(g, z), 1000)]
        cut = g.n - len(z) - len(leaves[0][1])
        seen, replayed = set(), []
        for _, tail in leaves:
            replayed.append(id(tail) in seen)
            seen.add(id(tail))
        # the list kept last and the one after it are in the same visit
        inside = [i for i in range(999) if leaves[i + 1][0] > cut]
        for replay in (False, True):
            self.check(tmp_path, g, z, limit=next(i for i in inside if replayed[i] == replay) + 1)

    @pytest.mark.parametrize("cut", [-1, 0, 1])
    def test_a_tail_that_starts_at_or_next_to_the_root(self, tmp_path, cut):
        # a two-way path driven from both ends, as in test_forcing.TestTailReplay
        n = forcing._TAIL + 3 + cut
        path = DiGraph(n, [(v, v + 1) for v in range(1, n)] + [(v + 1, v) for v in range(1, n)])
        self.check(tmp_path, path, {1, n})

    def test_runs_join_once_per_prefix_and_values_once_per_record_leaf(
        self, capsys, monkeypatch
    ):
        doc = parse_document((SAMPLES / "chains24.net").read_text())
        leaves = [(s, t) for s, _, t in islice(schedule_leaves(doc.network, doc.controls), 1000)]
        cut = doc.network.n - len(doc.controls) - len(leaves[0][1])
        prefixes = sum(1 for shared, _ in leaves if shared < cut)
        records = len({id(tail) for _, tail in leaves})
        assert (prefixes, records) == (76, 155)  # 845 lists are replays
        built = []
        for name in ("_runs", "_hole_values"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, real=real, name=name: built.append(name) or real(*a)
            )
        for fmt in ("machine", "text"):
            built.clear()
            rc, _ = run(capsys, "schedules", str(SAMPLES / "chains24.net"), "--limit", "1000",
                        "--format", fmt)
            assert rc == 0
            assert (built.count("_runs"), built.count("_hole_values")) == (prefixes, records)

    @pytest.mark.parametrize("fmt", ["machine", "text"])
    def test_chains24s_first_thousand_schedules_keep_their_bytes(self, capsys, fmt):
        rc, out = run(capsys, "schedules", str(SAMPLES / "chains24.net"), "--limit", "1000",
                      "--format", fmt)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CHAINS24_DIGESTS[fmt]


class TestRepeatedCalls:
    """``main`` reuses one parser per process; no call may see another's options."""

    def test_options_do_not_leak_into_the_next_call(self, capsys):
        doc = str(SAMPLES / "ring6_chord.net")
        rc, out = run(
            capsys, "robustness", doc, "--mode", "sub", "--no-verify", "--format", "machine"
        )
        assert rc == 0 and "verification" not in json.loads(out)
        rc, out = run(capsys, "robustness", doc, "--mode", "sub", "--format", "machine")
        assert rc == 0 and json.loads(out)["verification"]["passed"] is True

    def test_usage_error_after_a_successful_call_exits_3(self, capsys):
        assert run(capsys, "check", str(SAMPLES / "chain3.net"))[0] == 0
        assert main(["robustness", str(SAMPLES / "chain3.net")]) == 3
        assert "--mode" in capsys.readouterr().err
        assert run(capsys, "check", str(SAMPLES / "chain3.net"))[0] == 0


class TestOneClosure:
    """``check`` runs one forcing closure under a built-in policy or an
    explicit list that replays; the stall test's closure runs only when a
    list fails to replay or the policy is unknown."""

    @pytest.mark.parametrize("doc, policy, closures", [
        ("ring6_chord.net", "lowest-forcer", 1),
        ("ring6_chord.net", "lowest-forced", 1),
        ("ring6_stalled.net", "lowest-forcer", 1),
        ("ring6_chord.net", f"explicit:{SAMPLES / 'ring6_chord_forces.txt'}", 1),
        ("ring6_stalled.net", f"explicit:{SAMPLES / 'ring6_chord_forces.txt'}", 2),
        ("ring6_stalled.net", "bogus", 1),
    ])
    def test_closures_per_check(self, capsys, monkeypatch, doc, policy, closures):
        from ssc_toolkit import forcing

        built = []
        init = forcing._Frontier.__init__
        monkeypatch.setattr(
            forcing._Frontier, "__init__", lambda self, *a: built.append(1) or init(self, *a)
        )
        rc = main(["check", str(SAMPLES / doc), "--policy", policy])
        capsys.readouterr()
        assert rc == (0 if doc == "ring6_chord.net" else 2)
        assert len(built) == closures

    @pytest.mark.parametrize("command", [["check"], ["robustness", "--mode", "add"]])
    def test_a_replayed_list_runs_no_stall_test(self, capsys, monkeypatch, command):
        def stall_test(*args):
            raise AssertionError("stall test run")

        monkeypatch.setattr(cli, "stalled_white_set", stall_test)
        policy = f"explicit:{SAMPLES / 'ring6_chord_forces.txt'}"
        rc = main([command[0], str(SAMPLES / "ring6_chord.net"), *command[1:], "--policy", policy])
        capsys.readouterr()
        assert rc == 0


class TestOneTimeFunctionCheck:
    """A time function is checked once, when it is built: one per document
    with CHAINS and TIMES, plus each one a call derives."""

    @pytest.mark.parametrize("argv, built", [
        (["combine", "path3_bidir.net", "ring4_chord.net", "--sequence", "2,1,1,2",
          "--inter-edges", "inter_path_ring.txt"], 3),  # two documents, one merge
        (["oracle", "chain3.net", "--ltv", "--schedule", "chain3_varying.sched"], 1),
        (["robustness", "ring6_chord.net", "--mode", "add"], 1),  # the witness
    ])
    def test_time_functions_built_per_call(self, capsys, monkeypatch, argv, built):
        checks = []
        post_init = TimeFunction.__post_init__
        monkeypatch.setattr(
            TimeFunction, "__post_init__", lambda self: checks.append(1) or post_init(self)
        )
        argv = [str(SAMPLES / a) if a.endswith((".net", ".sched", ".txt")) else a for a in argv]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(checks) == built


def test_only_the_ltv_oracle_loads_scipy(tmp_path):
    """Importing scipy costs every command its start-up time; only
    ``ltv_gramian_rank`` needs it, and only for a piece after the first
    while the reachable subspace is short of full rank.  From v1 the first
    piece of the worked schedule already reaches every node; from v2 the
    bare chain reaches v2 and v3, so the second piece carries them."""
    doc = tmp_path / "chain3_v2.net"
    doc.write_text((SAMPLES / "chain3.net").read_text().replace("CONTROLS\nv1", "CONTROLS\nv2"))
    sched = tmp_path / "carried.sched"
    sched.write_text("BREAKPOINTS\n0 1 2.5\nINTERVAL\nINTERVAL\nv2 v1\n")
    script = f"""
import contextlib, io, sys
from ssc_toolkit.cli import main
S = {str(SAMPLES)!r} + "/"
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["check", S + "ring6_chord.net"],
        ["robustness", S + "ring6_chord.net", "--mode", "add"],
        ["combine", S + "path3_bidir.net", S + "ring4_chord.net"],
        ["schedules", S + "ring6_chord.net"],
        ["schedules", S + "path3_bidir.net", S + "ring4_chord.net"],
        ["oracle", S + "ring6_chord.net"],
        ["oracle", S + "chain3.net", "--ltv", "--schedule", S + "chain3_varying.sched"],
    ):
        assert main(argv) == 0, argv
print("scipy" in sys.modules, file=sys.stderr)
for fmt in ("text", "machine"):
    assert main(["oracle", {str(doc)!r}, "--ltv", "--schedule", {str(sched)!r},
                 "--format", fmt]) == 0
print("scipy" in sys.modules, file=sys.stderr)
"""
    src = str(SAMPLES.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.split() == ["False", "True"]
    assert done.stdout == (
        "seed: 0\n"
        "gramian rank: 3/3\n"
        "controls cover the chain sources: no\n"
        "consistent: yes\n"
        '{"command": "oracle", "consistent": true, "controls_cover_sources": false, '
        '"gramian_rank": 3, "ltv": true, "nodes": 3, "seed": 0}\n'
    )


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, chunk):
        self.sizes.append(len(chunk))
        return super().write(chunk)


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["machine", "text"])
    @pytest.mark.parametrize("argv", [
        ["robustness", "{doc}", "--mode", "add", "--no-verify"],
        ["combine", "{doc}", "{doc}"],
    ])
    def test_large_outputs_are_written_in_chunks(self, tmp_path, monkeypatch, argv, fmt):
        doc = tmp_path / "path40.net"
        doc.write_text(PATH40)
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([a.replace("{doc}", str(doc)) for a in argv] + ["--format", fmt]) == 0
        text = out.getvalue()
        assert len(out.sizes) > 30
        assert max(out.sizes) < len(text) / 10
        if fmt == "machine":
            assert json.loads(text)

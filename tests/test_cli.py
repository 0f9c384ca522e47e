from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ssc_toolkit import cli
from ssc_toolkit.cli import main
from ssc_toolkit.documents import parse_document
from ssc_toolkit.forcing import enumerate_forcing_schedules, is_zfs
from ssc_toolkit.graphs import DiGraph
from ssc_toolkit.synthesis import TimeFunction

from conftest import digraphs

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


    @pytest.mark.parametrize("mode, sequence, entry", [
        ("general", "9,1,2,2", 9),
        ("general", "2,0,1,2", 0),
        ("dag", "1,2,1,2,1,3", 3),
        ("dag", "G1,G0", 0),
    ])
    def test_out_of_range_sequence_entry_is_input_error(self, capsys, mode, sequence, entry):
        docs = ["path3_bidir.net", "ring4_chord.net"] if mode == "general" else ["chain3.net"] * 2
        rc = main(["combine", *(str(SAMPLES / d) for d in docs), "--mode", mode,
                   "--sequence", sequence])
        assert rc == 3
        assert f"sequence entry {entry} is not a document number in 1..2" in capsys.readouterr().err


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
        capsys.readouterr()


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
        assert data["count"] == 6
        assert [2, 1, 1, 2] in data["sequences"]

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


class TestScheduleWriter:
    """Forces and intervals written from the force list match what the
    record's time function gives, as ``json.dumps`` or the text format
    writes it."""

    @given(digraphs(max_n=7), st.data())
    def test_same_text_as_the_time_function(self, g: DiGraph, data):
        name = st.from_regex(r'[ab%][ab1%"\\\xe9]{0,2}', fullmatch=True)
        names = data.draw(st.lists(name, min_size=g.n, max_size=g.n, unique=True))
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        assume(is_zfs(g, z))
        for record in enumerate_forcing_schedules(g, z, limit=10):
            tf = TimeFunction.from_record(record)
            named = [[names[u - 1], names[v - 1]] for u, v in record.forces]
            by_name = {names[v - 1]: list(tf.interval(v)) for v in tf.times}
            write = cli._schedule_writer(names, True, record.gamma)
            assert write(record.forces) == (json.dumps(named), json.dumps(by_name, sort_keys=True))
            write = cli._schedule_writer(names, False, record.gamma)
            assert write(record.forces) == (
                " ".join(f"{a}>{b}" for a, b in named),
                " ".join(f"{names[v - 1]}:[{t},{tf.tmax[v]}]" for v, t in sorted(tf.times.items())),
            )


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
    """``check`` runs one forcing closure under a built-in policy; any other
    policy is read only after a first closure has found the controls forcing."""

    @pytest.mark.parametrize("doc, policy, closures", [
        ("ring6_chord.net", "lowest-forcer", 1),
        ("ring6_chord.net", "lowest-forced", 1),
        ("ring6_stalled.net", "lowest-forcer", 1),
        ("ring6_chord.net", f"explicit:{SAMPLES / 'ring6_chord_forces.txt'}", 2),
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

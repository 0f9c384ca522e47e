"""The benchmark's tracer wraps library functions by name.

``perfbench/spans.py`` patches each name in its ``TARGETS`` table; a name
that the library no longer has breaks only traced benchmark runs.  These
tests load the tracer by file path, install it over the modules the CLI
imports, run traced CLI calls, and check that uninstalling puts every
original back.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from ssc_toolkit import cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans) -> dict[str, object]:
    """Every wrapped name and the object it is bound to now."""
    out = {}
    for modname, attr, *_ in spans.TARGETS:
        owner = sys.modules[f"ssc_toolkit.{modname}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner)[cls_name]
        out[f"{modname}.{attr}"] = vars(owner)[attr]
    return out


def test_every_target_is_patched_and_restored(spans):
    before = _targets(spans)
    cli_names = dict(vars(cli))
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _targets(spans)
        assert [name for name in before if during[name] is before[name]] == []
    finally:
        tracer.uninstall()
    after = _targets(spans)
    assert [name for name in before if after[name] is not before[name]] == []
    assert {k: v for k, v in vars(cli).items() if v is not cli_names.get(k)} == {}


def test_traced_cli_calls_feed_the_counters(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for argv in (
                ["check", str(SAMPLES / "ring6_chord.net")],
                ["robustness", str(SAMPLES / "ring6_chord.net"), "--mode", "add"],
                ["combine", str(SAMPLES / "path3_bidir.net"), str(SAMPLES / "ring4_chord.net")],
                ["combine", *[str(SAMPLES / "chain3.net")] * 2, "--mode", "dag"],
                ["schedules", *(str(SAMPLES / f"{net}.net") for net in (
                    "path3_bidir", "ring4_chord", "chain3")), "--limit", "3"],
            ):
                tracer.begin_call()
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    for counter in ("documents.parse_bytes", "forcing.forces_applied",
                    "robustness.verify_calls", "combine.inter_edges"):
        assert tracer.counters[counter] > 0, counter
    buckets = tracer.busy()
    assert buckets["documents.parse_s"] > 0 and buckets["cli.self_s"] > 0
    for bucket in ("combine.networks_s", "combine.max_inter_s", "combine.dags_s",
                   "combine.sequences_s"):
        assert buckets.get(bucket, 0) > 0, bucket
    assert not tracer.errors

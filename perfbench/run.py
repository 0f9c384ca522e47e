"""Benchmark of the ssc-toolkit CLI, run in-process through ``cli.main(argv)``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload family-scale --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from ``--seed`` into a
temporary directory inside the checkout, prints a SHA-256 fingerprint of
them, times set-up in fresh interpreters, then runs the workload's calls in
a closed loop (one client, one thread, each call after the previous one
returns) for whole passes until ``--seconds`` have elapsed.  Every output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics from a separately traced
phase with ``--trace 1``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import spans, workloads  # noqa: E402  (needs ROOT on the path)

SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"  # per-call latencies and span dumps
THREADS_ENV = "SSC_TOOLKIT_THREADS"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # confirm claims on this seed too; never tune on it
SETUP_REPS = 5
MIN_PASSES = 2  # a call's latency is its median over the passes
REFERENCE_RANKS = 100
REFERENCE_S = 1.8e-3  # the probe on a quiet host: the time base of the metrics
TAIL_PERCENTILE = 90

# A failed call is one of these classes.
EXIT = "exit_code"  # an unexpected exit code (2, 3 or 4)
EXCEPTION = "exception"  # an exception left main, e.g. RecursionError
WRONG = "wrong_value"  # the expected exit code, but a checked value is wrong

SETUP_SCRIPT = """
import contextlib, io, sys
from ssc_toolkit import cli
calls = __import__("json").loads(sys.argv[1])
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_cli():
    """Import the CLI from this checkout's ``src/``, never an installed copy.

    The library's own thread pool stays off (``SSC_TOOLKIT_THREADS`` unset)
    and BLAS runs one thread, so the closed loop really is one thread.
    """
    if not (SRC / "ssc_toolkit" / "cli.py").is_file():
        fail(f"no ssc_toolkit sources under {SRC}; run from a checkout of the repository")
    os.environ.pop(THREADS_ENV, None)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    from ssc_toolkit import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        fail(f"imported ssc_toolkit from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        THREADS_ENV: "unset (library loops run single-threaded)",
        **BLAS_ENV,
    }


def fingerprint(workload, workdir: Path) -> str:
    """SHA-256 over the generated files and the calls' arguments (which carry
    the explicit sequences), with the temporary directory's name left out."""
    digest = hashlib.sha256()
    for path in sorted(set(workload.files), key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for call in workload.calls:
        digest.update(" ".join(call.argv).replace(str(workdir), "").encode() + b"\0")
    return digest.hexdigest()


@functools.cache
def probe_matrix():
    import numpy  # not before load_cli has pinned BLAS to one thread

    return numpy.random.default_rng(0).random((8, 8))


def reference_seconds() -> float:
    """Wall time of a fixed piece of work: a probe of the host's speed now.

    The work, ranks of a fixed 8x8 matrix, runs interpreter, numpy and
    LAPACK code as the program does.  Load from other tenants slows it
    about as much as the program's calls; a pure-Python loop is slowed only
    about half as much as numpy-heavy calls, which then read high on a
    busy host.
    """
    from numpy.linalg import matrix_rank

    matrix = probe_matrix()
    start = time.perf_counter()
    for _ in range(REFERENCE_RANKS):
        matrix_rank(matrix)
    return time.perf_counter() - start


def host_factor(refs) -> float:
    """How much slower than a quiet host the probes ran (1.0 = quiet)."""
    return statistics.median(refs) / REFERENCE_S


def measure_setup(warmups) -> list[tuple[float, float]]:
    """(wall time, host factor) of fresh interpreters that import the CLI and
    warm up; the factor comes from probes just before and after each one."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    runs = []
    for _ in range(SETUP_REPS):
        refs = [reference_seconds() for _ in range(25)]
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, json.dumps(warmups)],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        refs += [reference_seconds() for _ in range(25)]
        runs.append((wall, host_factor(refs)))
    return runs


@dataclass(slots=True)
class Outcome:
    call: workloads.Call
    seconds: float  # wall time inside main
    failure: str | None  # EXIT, EXCEPTION, WRONG or None
    detail: str
    output_bytes: int
    subsets: int  # verification.subsets_tested of a verifying call
    probe: float  # mean of the host probes just before and just after the call


class Runner:
    """Closed-loop client: one call at a time, outputs checked after timing."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.verdicts: dict = {}  # (label, argv, exit, output hash) -> checked verdict

    def call(self, call) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        probe = reference_seconds()
        if self.tracer is not None:
            self.tracer.begin_call()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(call.argv)
            except Exception as raised:  # a crash is a measured failure, not ours
                code, exc = None, raised
            seconds = time.perf_counter() - start
        probe = (probe + reference_seconds()) / 2
        text = out.getvalue()
        size = len(text) + len(err.getvalue())
        if exc is not None:
            return Outcome(call, seconds, EXCEPTION, type(exc).__name__, size, 0, probe)
        key = (call.label, tuple(call.argv), code, hashlib.sha1(text.encode()).digest())
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = self.judge(call, code, text, err.getvalue())
        failure, detail, subsets = verdict
        return Outcome(call, seconds, failure, detail, size, subsets, probe)

    @staticmethod
    def judge(call, code, text, err):
        if code != call.exit_code:
            reason = err.strip().splitlines()[-1:] or [""]
            return EXIT, f"exit {code}, want {call.exit_code}: {reason[0][:160]}", 0
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return WRONG, "output is not JSON", 0
        problems = call.check(data)
        if problems:
            return WRONG, "; ".join(problems)[:300], 0
        subsets = data.get("verification", {}).get("subsets_tested", 0) if call.verifies else 0
        return None, "", subsets

    def passes(self, calls, seconds: float) -> list[list[Outcome]]:
        """Whole passes over ``calls`` until ``seconds`` have elapsed (at least
        ``MIN_PASSES``)."""
        done = []
        start = time.perf_counter()
        while len(done) < MIN_PASSES or time.perf_counter() - start < seconds:
            done.append([self.call(c) for c in calls])
        return done


def traced_passes(runner, calls, seconds: float):
    """Untraced and traced passes, alternating so that drift hits both alike,
    until ``seconds`` have elapsed (at least ``MIN_PASSES`` of each)."""
    tracer = spans.Tracer()
    traced, untraced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append([runner.call(c) for c in calls])
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append([runner.call(c) for c in calls])
        finally:
            runner.tracer = None
            tracer.uninstall()
    return traced, untraced, tracer


def call_failures(passes) -> list[Outcome | None]:
    """Per call of the pass, its first failing attempt, or None.

    A pass is the workload's operations; later passes repeat them for
    timing only.  Counting each call once, as failed if any attempt failed,
    gives the same attempted and failed for a seed however many passes fit
    into ``--seconds``.
    """
    return [next((p[i] for p in passes if p[i].failure), None) for i in range(len(passes[0]))]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def per_call(passes, normalized: bool = True) -> list[float]:
    """Each call's latency in quiet-host seconds: the median over the run's
    passes of its wall time divided by the host factor of its own probes.

    On a shared host, other tenants switch the speed of the same code by up
    to a factor of two, at intervals from milliseconds to minutes; the
    probes around a call see the same state as the call.  With
    ``normalized=False`` the plain wall-clock medians.
    """
    return [
        statistics.median(p[i].seconds / (host_factor([p[i].probe]) if normalized else 1.0)
                          for p in passes)
        for i in range(len(passes[0]))
    ]


def end_to_end(passes, setups) -> tuple[dict, list[str]]:
    calls = [o.call for o in passes[0]]
    best, wall = per_call(passes), per_call(passes, normalized=False)
    notes = [
        "median host factor per pass: " + ", ".join(
            f"{host_factor([o.probe for o in p]):.3f}" for p in passes),
        "setup runs (wall s, host factor): " + ", ".join(f"{w:.3f}/{f:.3f}" for w, f in setups),
    ]

    def lat(kinds, name, q=50):
        values = [b for c, b in zip(calls, best) if c.kind in kinds]
        if not values:
            raise SystemExit(f"perfbench: no {'/'.join(kinds)} calls in this workload")
        value = percentile(values, q)
        beyond = sum(v > value for v in values)
        raw = percentile([b for c, b in zip(calls, wall) if c.kind in kinds], q)
        notes.append(f"{name}: p{q} of {len(values)} calls x {len(passes)} passes, "
                     f"{beyond} calls beyond it; wall clock {raw:.6g} s")
        return value

    verifying = [(c, b) for c, b in zip(calls, best) if c.verifies]
    subsets = {id(o.call): o.subsets for o in passes[0]}
    failed = sum(o is not None for o in call_failures(passes))
    metrics = {
        "setup_s": (statistics.median(w / f for w, f in setups), "s"),
        "check_p50_s": (lat(["check"], "check_p50_s"), "s"),
        "check_tail_s": (lat(["check"], "check_tail_s", TAIL_PERCENTILE), "s"),
        "robustness_add_p50_s": (lat(["robustness_add"], "robustness_add_p50_s"), "s"),
        "robustness_sub_p50_s": (lat(["robustness_sub"], "robustness_sub_p50_s"), "s"),
        "robustness_tail_s": (
            lat(["robustness_add", "robustness_sub"], "robustness_tail_s", TAIL_PERCENTILE), "s"),
        "combine_p50_s": (lat(["combine"], "combine_p50_s"), "s"),
        "schedules_p50_s": (lat(["schedules"], "schedules_p50_s"), "s"),
        "oracle_p50_s": (lat(["oracle"], "oracle_p50_s"), "s"),
        "oracle_ltv_p50_s": (lat(["oracle_ltv"], "oracle_ltv_p50_s"), "s"),
        "oracle_tail_s": (lat(["oracle", "oracle_ltv"], "oracle_tail_s", TAIL_PERCENTILE), "s"),
        "subsets_per_s": (
            sum(subsets[id(c)] for c, _ in verifying) / sum(b for _, b in verifying), "1/s"),
        "calls_per_s": (len(calls) / sum(best), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "failed_share": (failed / len(calls), "ratio"),
    }
    return metrics, notes


def per_layer(tracer, traced, untraced) -> dict:
    """Per-pass busy times and counts from the traced passes."""
    passes_traced = len(traced)
    busy = tracer.busy()
    c = tracer.counters
    per = lambda x: x / passes_traced
    m = {}
    for bucket in (
        "documents.parse_s", "documents.emit_s", "graphs.build_s", "graphs.masks_s",
        "graphs.topo_s", "forcing.zfs_s", "forcing.schedule_s", "forcing.enumerate_s",
        "synthesis.perfect_graph_s", "synthesis.optional_edges_s", "synthesis.ct_check_s",
        "robustness.critical_set_s", "robustness.verify_s", "combine.networks_s",
        "combine.max_inter_s", "combine.sequences_s", "combine.dags_s", "oracle.lti_s",
        "oracle.ltv_s", "oracle.ltv_schedule_s", "cli.self_s",
    ):
        m[bucket] = (per(busy.get(bucket, 0.0)), "s")
    for name in (
        "documents.parse_bytes", "graphs.edges_built", "forcing.zfs_calls",
        "forcing.forces_applied", "forcing.records_enumerated", "synthesis.perfect_edges",
        "robustness.subsets_tested", "combine.inter_edges", "oracle.draws",
    ):
        m[name] = (per(c[name]), "bytes" if name.endswith("_bytes") else "count")
    ratio = lambda a, b: a / b if b else 0.0
    verify_time = busy.get("robustness.verify_s.inclusive", 0.0)
    m["robustness.subsets_per_s"] = (ratio(c["robustness.subsets_tested"], verify_time), "1/s")
    m["robustness.exhaustive_share"] = (
        ratio(c["robustness.exhaustive_calls"], c["robustness.verify_calls"]), "ratio")
    lti_time = busy.get("oracle.lti_s.inclusive", 0.0)
    m["oracle.draws_per_s"] = (ratio(c["oracle.draws"], lti_time), "1/s")
    m["oracle.full_rank_ratio"] = (ratio(c["oracle.full_rank_draws"], c["oracle.zfs_draws"]), "ratio")
    m["oracle.witness_found_ratio"] = (
        ratio(c["oracle.witnesses_found"], c["oracle.witness_searches"]), "ratio")
    outputs = [o for p in traced for o in p]
    m["cli.output_bytes"] = (per(sum(o.output_bytes for o in outputs)), "bytes")
    for layer in spans.LAYERS:
        m[f"{layer}.errors"] = (per(sum(tracer.errors[layer].values())), "count")
    m["trace.overhead_share"] = (sum(per_call(traced)) / sum(per_call(untraced)) - 1, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"closed loop: 1 client, 1 thread, in-process cli.main; seed {args.seed} "
          f"(default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = workloads.build(args.workload, args.seed, Path(tmp))
        calls = workload.calls
        print(f"inputs: {len(set(workload.files))} files, sha256 {fingerprint(workload, Path(tmp))}")
        print(f"pass: {len(calls)} calls")
        warmups = workloads.warmups(Path(tmp))
        setups = [] if args.trace else measure_setup(warmups)
        runner = Runner(cli)
        for argv in warmups:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)

        if not args.trace:
            done = runner.passes(calls, args.seconds)
            metrics, notes = end_to_end(done, setups)
        else:
            done, untraced, tracer = traced_passes(runner, calls, args.seconds)
            metrics = per_layer(tracer, done, untraced)
            notes = [f"{layer}.errors by class, {len(done)} traced passes: "
                     f"{dict(tracer.errors[layer])}"
                     for layer in spans.LAYERS if tracer.errors[layer]]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"calls-{stem}.json").write_text(json.dumps([
        {"kind": o.call.kind, "label": o.call.label, "failure": o.failure,
         "seconds": [p[i].seconds for p in done], "probe": [p[i].probe for p in done]}
        for i, o in enumerate(done[0])
    ]))
    if args.trace:
        tracer.dump(OUT / f"spans-{stem}.jsonl")
        notes.append(f"{len(tracer.spans)} spans written to .perfbench-out/spans-{stem}.jsonl")
    failed = [o for o in call_failures(done) if o is not None]
    failures = Counter(o.failure for o in failed)
    print(f"passes: {len(done)}; calls per pass: {len(calls)}; wall busy per pass: "
          + ", ".join(f"{sum(o.seconds for o in p):.3f}s" for p in done))
    for note in notes:
        print("  " + note)
    per_pass = [Counter(o.failure for o in p if o.failure) for p in done]
    print("failed calls by class: " + json.dumps({cls: failures[cls] for cls in (EXIT, EXCEPTION, WRONG)})
          + ("" if all(c == per_pass[0] for c in per_pass) else " (the passes differ)"))
    for o in failed:
        print(f"  FAILED {o.call.kind} {o.call.label}: {o.failure}: {o.detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not any(o.failure == WRONG for p in done for o in p),
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

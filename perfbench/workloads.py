"""The benchmark's workloads: the files each one generates and the CLI
calls it makes on them, each call with its expected exit code and checks.

A workload is a fixed list of calls (one *pass*); the timed phase repeats
whole passes.  Every workload also carries a few *coverage* calls on the
bundled worked examples (frozen copies in ``worked/``), so every
subcommand, and so every end-to-end metric, is measured on every workload.
"""
from __future__ import annotations

import functools
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import checks, gen

WORKED = Path(__file__).resolve().parent / "worked"


@dataclass
class Call:
    kind: str
    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    exit_code: int = 0
    verifies: bool = False  # a robustness call that verifies


class Workload:
    """Writes one workload's files and collects its calls."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = workdir
        self.files: list[Path] = []
        self.calls: list[Call] = []

    def rng(self, *label):
        return gen.rng_for(self.workload, self.seed, *label)

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        self.files.append(path)
        return str(path)

    def add(self, kind, label, argv, check, exit_code=0, verifies=False):
        self.calls.append(
            Call(kind, label, [*argv, "--format", "machine"], check, exit_code, verifies)
        )

    # -- call shapes ------------------------------------------------------

    def check_member(self, label, path, n, m):
        self.add("check", label, ["check", path], functools.partial(checks.check_zfs, n=n, m=m))

    def check_skeleton(self, label, path, stalled):
        check = functools.partial(checks.check_stalled, stalled=stalled)
        self.add("check", label, ["check", path], check, exit_code=2)

    def robustness(self, label, path, mode, n, m, edges, verify, kind=None):
        argv = ["robustness", path, "--mode", mode] + ([] if verify else ["--no-verify"])
        check = functools.partial(
            checks.check_robustness, mode=mode, n=n, m=m, edges=edges, verify=verify
        )
        self.add(kind or f"robustness_{mode}", label, argv, check, verifies=verify)

    def schedules(self, label, path, n, m, limit):
        check = functools.partial(checks.check_schedules, n=n, m=m, limit=limit)
        self.add("schedules", label, ["schedules", path, "--limit", str(limit)], check)

    def oracle(self, label, path, zfs, stalled=frozenset(), trials=100):
        check = functools.partial(checks.check_oracle, zfs=zfs, trials=trials, stalled=stalled)
        self.add("oracle", label, ["oracle", path, "--trials", str(trials)], check)

    def oracle_ltv(self, label, path, sched, n):
        check = functools.partial(checks.check_ltv, n=n)
        self.add("oracle_ltv", label, ["oracle", path, "--ltv", "--schedule", sched], check)

    # -- generated inputs -------------------------------------------------

    def family_member(self, name, n, m, p):
        """Write a family member driven from its chain sources."""
        rng = self.rng(name)
        fam = gen.family(rng, n, m)
        edges = gen.member(rng, fam, p)
        path = self.write(f"{name}.net", gen.network_text(n, edges, fam.sources, fam))
        return fam, edges, path

    def skeleton_dropped(self, name, fam):
        """The chain skeleton with one source dropped (the sink when m == 1).

        Forcing stalls exactly on the dropped chain, or everywhere but the
        sink for a single chain, so the expected stalled set is known.
        """
        rng = self.rng(name)
        chains = fam.chains
        if fam.m == 1:
            controls = [chains[0][-1]]
            stalled = list(chains[0][:-1])
        else:
            drop = rng.randrange(fam.m)
            controls = [c[0] for i, c in enumerate(chains) if i != drop]
            stalled = list(chains[drop])
        text = gen.network_text(fam.n, fam.chain_edges, controls)
        return self.write(f"{name}.net", text), frozenset(f"v{v}" for v in stalled)

    def combine_pair(self, name, n, m, p, explicit):
        """General combination of two n/2 family blocks.

        The default call lets the CLI pick the first valid sequence; the
        explicit one passes a seeded shuffled sequence and a file of
        admissible inter edges.
        """
        half, mb = n // 2, max(1, m // 2)
        fams, paths, stats = [], [], []
        for b in (1, 2):
            fam, edges, path = self.family_member(f"{name}-b{b}", half, mb, p)
            fams.append(fam)
            paths.append(path)
            stats.append((half, mb, len(edges)))
        counts = [f.n - f.m for f in fams]
        argv = ["combine", *paths]
        if not explicit:
            seq = [1] * counts[0] + [2] * counts[1]
            check = functools.partial(checks.check_combine, blocks=stats, sequence=seq, inter=0)
            self.add("combine", f"{name}-default", argv, check)
            return
        rng = self.rng(name, "layout")
        seq0 = gen.shuffled_sequence(rng, counts)
        inter = gen.admissible_inter_edges(rng, fams, seq0, 64)
        seq = [i + 1 for i in seq0]
        inter_path = self.write(
            f"{name}.inter",
            "".join(f"{a + 1}.v{u} {b + 1}.v{v}\n" for a, u, b, v in inter),
        )
        argv += ["--sequence", ",".join(map(str, seq)), "--inter-edges", inter_path]
        check = functools.partial(
            checks.check_combine, blocks=stats, sequence=seq, inter=len(inter)
        )
        self.add("combine", f"{name}-explicit", argv, check)

    def combine_dags(self, name, n, p, explicit):
        half = n // 2
        paths, stats = [], []
        for b in (1, 2):
            edges = gen.dag(self.rng(name, b), half, p)
            paths.append(self.write(f"{name}-d{b}.net", gen.network_text(half, edges, (), prefix="d")))
            stats.append((half, len(edges)))
        argv = ["combine", *paths, "--mode", "dag"]
        if explicit:
            seq = [i + 1 for i in gen.alternating_sequence(self.rng(name, "layout"), half)]
            argv += ["--sequence", ",".join(map(str, seq))]
        else:
            seq = [1 + (i % 2) for i in range(2 * half)]  # lexicographically first
        check = functools.partial(checks.check_dag, blocks=stats, sequence=seq)
        self.add("combine", f"{name}-{'explicit' if explicit else 'default'}", argv, check)

    # -- bundled worked examples ------------------------------------------

    def worked(self, name: str) -> str:
        path = self.dir / name
        if path not in self.files:
            shutil.copyfile(WORKED / name, path)
            self.files.append(path)
        return str(path)

    def coverage(self, kinds) -> None:
        """Calls on the worked examples for the given kinds of call."""
        ring = self.worked("ring6_chord.net")
        for kind in kinds:
            if kind == "check":
                self.check_member("worked-ring6", ring, 6, 2)
            elif kind == "robustness_add":
                self.robustness("worked-ring6", ring, "add", 6, 2, 14, verify=True)
            elif kind == "robustness_sub":
                self.robustness("worked-ring6", ring, "sub", 6, 2, 14, verify=True)
            elif kind == "verify":  # feeds subsets_per_s only, no latency metric
                self.robustness("worked-ring6", ring, "add", 6, 2, 14, verify=True, kind=kind)
            elif kind == "schedules":
                self.schedules("worked-ring6", ring, 6, 2, limit=1000)
            elif kind == "combine":
                path3 = self.worked("path3_bidir.net")
                ring4 = self.worked("ring4_chord.net")
                inter = self.worked("inter_path_ring.txt")
                argv = ["combine", path3, ring4, "--sequence", "2,1,1,2", "--inter-edges", inter]
                check = functools.partial(
                    checks.check_combine, blocks=[(3, 1, 4), (4, 2, 10)],
                    sequence=[2, 1, 1, 2], inter=16,
                )
                self.add("combine", "worked-path3-ring4", argv, check)
                chain3 = self.worked("chain3.net")
                check = functools.partial(
                    checks.check_dag, blocks=[(3, 2), (3, 2)], sequence=[1, 2, 1, 2, 1, 2]
                )
                self.add("combine", "worked-chain3-dag", ["combine", chain3, chain3, "--mode", "dag"], check)
            elif kind == "oracle":
                self.oracle("worked-ring6", ring, zfs=True)
            elif kind == "oracle_ltv":
                chain3 = self.worked("chain3.net")
                sched = self.worked("chain3_varying.sched")
                self.oracle_ltv("worked-chain3", chain3, sched, 3)


# -- the workloads ------------------------------------------------------------

FAMILY_SIZES = (100, 200, 400)  # dense members: every family-scale call
DEEP_SIZE = 2000  # sparse members: the deep-recursion paths only
DEEP_DEGREE = 2.0  # expected admissible out-edges per node in deep members
COVERAGE_CALLS = 9  # oracle and oracle --ltv calls per family-scale pass


def family_scale(b: Workload) -> None:
    """Large coin-flip members: parsing, graph building, synthesis, memory."""
    # Coverage calls, spread over the pass: one small call per pass is too
    # noisy a sample for its metric, and calls made back to back all meet
    # the same state of a shared host.  The verifying ring calls have a kind
    # of their own, so the robustness latencies stay those of the members.
    rounds = iter(range(COVERAGE_CALLS))

    def cover(i):
        b.coverage(("verify", "oracle", "oracle_ltv") if i < 3 else ("oracle", "oracle_ltv"))

    for n in FAMILY_SIZES:
        for m in sorted({1, math.ceil(n / 10)}):
            tag = f"n{n}-m{m}"
            fam, edges, path = b.family_member(f"member-{tag}", n, m, 0.5)
            b.check_member(tag, path, n, m)
            b.robustness(tag, path, "add", n, m, len(edges), verify=False)
            b.robustness(tag, path, "sub", n, m, len(edges), verify=False)
            b.schedules(tag, path, n, m, limit=1)
            b.combine_pair(f"pair-{tag}", n, m, 0.5, explicit=False)
            b.combine_pair(f"pair-{tag}", n, m, 0.5, explicit=True)
            b.combine_dags(f"dags-{tag}", n, 0.5, explicit=False)
            b.combine_dags(f"dags-{tag}", n, 0.5, explicit=True)
            cover(next(rounds))
    # Sparse members keep these large inputs cheap to parse; the calls below
    # recurse once per force or sequence entry.
    n, p = DEEP_SIZE, DEEP_DEGREE / DEEP_SIZE
    for m in (1, n // 10):
        tag = f"deep-n{n}-m{m}"
        fam, edges, path = b.family_member(f"member-{tag}", n, m, p)
        b.schedules(tag, path, n, m, limit=1)
        b.combine_pair(f"pair-{tag}", n, m, p, explicit=False)
        cover(next(rounds))
    for total in (n // 2, n):
        b.combine_dags(f"dags-deep-n{total}", total, p, explicit=False)
    for i in rounds:
        cover(i)


# (n, k): bigger critical sets on smaller graphs keep each scan under a second
PERTURB_CASES = ((6, 16), (12, 15), (18, 14), (24, 13), (32, 12))
PERTURB_DENSE = (12, 16)
SCHEDULE_MIN_N = 18  # from here on every member has over 1000 forcing schedules
SCHEDULE_REPLICAS = 2  # schedules calls per case: their cost varies by input
# Random inputs per case: the cost of one (n, k) case varies by up to 2x
# between inputs (it depends on how node ids run along the chains), so a
# run's medians must average over several.
PERTURB_REPLICAS = 4


def _chains_for(n: int) -> int:
    return max(1, n // 8)


def _cross_check(b: Workload, tag: str, path: str, fam, n: int) -> None:
    """The numerical oracle on a subtractive case, LTI and one-piece LTV."""
    b.oracle(tag, path, zfs=True)
    sched = b.write(f"{tag}.sched", gen.schedule_text(b.rng("sched", tag), fam, 1))
    b.oracle_ltv(tag, path, sched, n)


def perturb_verify(b: Workload) -> None:
    """Many small closures: exhaustive and sampled subset verification."""
    for n, k in PERTURB_CASES:
        m = _chains_for(n)
        for r in range(PERTURB_REPLICAS):
            # additive: the perfect member minus k optional edges
            tag = f"add-n{n}-k{k}-r{r}"
            rng = b.rng(tag)
            fam = gen.family(rng, n, m)
            opts = gen.optional_pairs(fam)
            gone = set(rng.sample(opts, k))
            edges = fam.chain_edges + [e for e in opts if e not in gone]
            path = b.write(f"{tag}.net", gen.network_text(n, edges, fam.sources, fam))
            b.robustness(tag, path, "add", n, m, len(edges), verify=True)
            # subtractive: the chain skeleton plus k optional edges
            tag = f"sub-n{n}-k{k}-r{r}"
            rng = b.rng(tag)
            fam = gen.family(rng, n, m)
            edges = fam.chain_edges + rng.sample(gen.optional_pairs(fam), k)
            path = b.write(f"{tag}.net", gen.network_text(n, edges, fam.sources, fam))
            b.robustness(tag, path, "sub", n, m, len(edges), verify=True)
            _cross_check(b, tag, path, fam, n)
            if r < SCHEDULE_REPLICAS and n >= SCHEDULE_MIN_N:
                b.schedules(tag, path, n, m, limit=1000)
            # a skeleton per input: check_tail_s is a p90, steady only over ~20 calls
            skel, stalled = b.skeleton_dropped(f"skeleton-n{n}-r{r}", fam)
            b.check_skeleton(f"skeleton-n{n}-r{r}", skel, stalled)
        # one round of the coverage calls per case, spread over the pass
        b.coverage(("combine",))
    for n in PERTURB_DENSE:
        m = _chains_for(n)
        fam, edges, path = b.family_member(f"dense-n{n}", n, m, 0.5)
        b.robustness(f"dense-n{n}", path, "add", n, m, len(edges), verify=True)
        b.robustness(f"dense-n{n}", path, "sub", n, m, len(edges), verify=True)
    ring = b.worked("ring6_chord.net")
    b.check_member("worked-ring6", ring, 6, 2)
    b.robustness("worked-ring6", ring, "add", 6, 2, 14, verify=True)
    b.robustness("worked-ring6", ring, "sub", 6, 2, 14, verify=True)


ORACLE_SIZES = (4, 8, 12, 16, 20, 30, 40)
ORACLE_REPLICAS = 3  # members per (n, m): near n = 16 the oracle fails on some only
ORACLE_COVERAGE_AFTER = (8, 20, 40)  # three rounds of coverage calls, spread over the pass


def oracle_xval(b: Workload) -> None:
    """Small members under numpy/scipy: LTI draws, witnesses and LTV ranks."""
    members = 0
    for n in ORACLE_SIZES:
        for m in sorted({1, math.ceil(n / 5)}):
            for r in range(ORACLE_REPLICAS):
                tag = f"n{n}-m{m}-r{r}"
                fam, edges, path = b.family_member(f"member-{tag}", n, m, 0.5)
                b.oracle(tag, path, zfs=True)
                skel, stalled = b.skeleton_dropped(f"skeleton-{tag}", fam)
                b.oracle(f"skeleton-{tag}", skel, zfs=False, stalled=stalled)
                pieces = 1 + members % 3  # 1, 2 and 3 pieces in turn
                members += 1
                sched = b.write(f"{tag}.sched", gen.schedule_text(b.rng("sched", tag), fam, pieces))
                b.oracle_ltv(tag, path, sched, n)
        if n in ORACLE_COVERAGE_AFTER:
            b.coverage(("check", "robustness_add", "robustness_sub", "schedules", "combine"))


WORKLOADS = {
    "family-scale": family_scale,
    "perturb-verify": perturb_verify,
    "oracle-xval": oracle_xval,
}


def warmups(workdir: Path) -> list[list[str]]:
    """One call of each subcommand use on the worked examples; every workload
    uses all of them."""
    b = Workload("warm-up", 0, workdir)
    b.coverage(("check", "robustness_add", "robustness_sub", "schedules", "combine",
                "oracle", "oracle_ltv"))
    return [c.argv for c in b.calls]


def build(workload: str, seed: int, workdir: Path) -> Workload:
    b = Workload(workload, seed, workdir)
    WORKLOADS[workload](b)
    return b

"""Numerical cross-validation of the combinatorial verdicts.

Weight matrices are drawn from a graph's qualitative class (entry (i, j)
nonzero exactly when the edge (j, i) exists; diagonals free), LTI
controllability is tested by Kalman rank, and piecewise-constant
time-varying schedules are tested by the rank of the controllability
Gramian.  The combinatorial side predicts: a forcing control set gives
full rank for *every* draw, while a stalled one only guarantees that
*some* member of the class is rank-deficient, so the negative direction
is checked through explicitly constructed witnesses.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm

from .forcing import is_zfs
from .graphs import DiGraph, Edge, control_set
from .synthesis import (
    TimeFunction,
    optional_edges,
    sample_member,
    stalled_white_set,
    validate_time_function,
)

DIAG_ZERO = "zero"
DIAG_NONZERO = "nonzero"
DIAG_MIXED = "mixed"
_DIAG_MODES = (DIAG_ZERO, DIAG_NONZERO, DIAG_MIXED)

WEIGHT_LOW = 0.1
WEIGHT_HIGH = 2.0

# Controllability matrices are notoriously ill-conditioned; the 1e3
# cushion over machine precision is validated against known-rank
# constructions in the test suite.
RANK_TOLERANCE_FACTOR = 1e3


def numeric_rank(matrix: np.ndarray) -> int:
    """Rank by SVD with singular values below n*eps*smax*1e3 counted as zero."""
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    smax = sv[0]
    if smax == 0.0:
        return 0
    n = max(matrix.shape)
    tol = n * np.finfo(float).eps * smax * RANK_TOLERANCE_FACTOR
    return int(np.sum(sv > tol))


def _nonzero(rng: np.random.Generator) -> float:
    mag = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH)
    return mag if rng.random() < 0.5 else -mag


def sample_matrix(
    g: DiGraph, rng: np.random.Generator, diag_mode: str = DIAG_MIXED
) -> np.ndarray:
    """One matrix from the qualitative class of ``g``.

    Off-diagonal entry (i, j) is nonzero exactly when the edge (j, i)
    exists; magnitudes are uniform in [0.1, 2] with uniform signs, so
    nothing sits numerically close to zero.  The diagonal is free:
    ``diag_mode`` forces it all-zero, all-nonzero, or flips a coin per
    entry.
    """
    if diag_mode not in _DIAG_MODES:
        raise ValueError(f"unknown diagonal mode {diag_mode!r}")
    a = np.zeros((g.n, g.n))
    for u, v in sorted(g.edges):
        if u != v:
            a[v - 1, u - 1] = _nonzero(rng)
    for i in range(g.n):
        if diag_mode == DIAG_NONZERO or (diag_mode == DIAG_MIXED and rng.random() < 0.5):
            a[i, i] = _nonzero(rng)
    return a


@dataclass(frozen=True)
class WeightSample:
    """A drawn system matrix together with how it was drawn."""

    matrix: np.ndarray
    seed: int
    diag_mode: str


def sample_qualitative(g: DiGraph, seed: int = 0, diag_mode: str = DIAG_MIXED) -> WeightSample:
    """Deterministic draw from the qualitative class of ``g``."""
    rng = np.random.default_rng(seed)
    return WeightSample(sample_matrix(g, rng, diag_mode), seed, diag_mode)


def input_matrix(n: int, controls: Iterable[int]) -> np.ndarray:
    """Identity columns for the (sorted) control nodes."""
    z = sorted(control_set(controls, n))
    b = np.zeros((n, len(z)))
    for col, node in enumerate(z):
        b[node - 1, col] = 1.0
    return b


def kalman_rank(a: np.ndarray, controls: Iterable[int]) -> int:
    """Rank of [B, AB, ..., A^(n-1)B] with B the control identity columns."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"system matrix must be square, got shape {a.shape}")
    b = input_matrix(n, controls)
    blocks = [b]
    x = b
    for _ in range(n - 1):
        x = a @ x
        blocks.append(x)
    return numeric_rank(np.hstack(blocks))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of sampling the qualitative class against the forcing verdict.

    ``consistent`` is False only in the impossible case: the controls
    force the whole graph yet some draw came out rank-deficient.  For a
    stalled control set the report carries the stalled white nodes and,
    when the heuristic search finds one, an explicitly rank-deficient
    member.
    """

    expected_zfs: bool
    trials: int
    full_rank: int
    consistent: bool
    stalled_white: frozenset[int]
    witness: np.ndarray | None
    witness_rank: int | None

    @property
    def fraction(self) -> float:
        return self.full_rank / self.trials if self.trials else 0.0


def _uncontrollable_witness(
    g: DiGraph, z: frozenset[int], seed: int, attempts: int = 12
) -> tuple[np.ndarray | None, int | None]:
    """Best-effort search for a rank-deficient member of the class.

    Zeroing the free diagonal is the usual culprit, so try that first
    with a few weight draws; a miss does not contradict the theory.
    """
    rng = np.random.default_rng([seed, 991])
    n = g.n
    for k in range(attempts):
        if k == 0:
            a = np.zeros((n, n))
            for u, v in g.edges:
                if u != v:
                    a[v - 1, u - 1] = 1.0
        else:
            a = sample_matrix(g, rng, DIAG_ZERO)
        rank = kalman_rank(a, z)
        if rank < n:
            return a, rank
    return None, None


def verify_ssc_numeric(
    g: DiGraph,
    controls: Iterable[int],
    trials: int = 100,
    seed: int = 0,
) -> OracleReport:
    """Sample the qualitative class and compare Kalman ranks with forcing.

    Draws cycle through the three diagonal modes; each trial owns a
    random stream derived from (seed, trial index).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    z = control_set(controls, g.n)
    expected = is_zfs(g, z)

    def run(trial: int) -> bool:
        rng = np.random.default_rng([seed, trial])
        a = sample_matrix(g, rng, _DIAG_MODES[trial % len(_DIAG_MODES)])
        return kalman_rank(a, z) == g.n

    full = sum(run(t) for t in range(trials))

    stalled: frozenset[int] = frozenset()
    witness = witness_rank = None
    if expected:
        consistent = full == trials
    else:
        consistent = True
        stalled = stalled_white_set(g, z)
        witness, witness_rank = _uncontrollable_witness(g, z, seed)
    return OracleReport(expected, trials, full, consistent, stalled, witness, witness_rank)


# -- time-varying schedules ----------------------------------------------


@dataclass(frozen=True)
class LtvSchedule:
    """A piecewise-constant system matrix: one graph and one weight draw
    per interval between consecutive breakpoints."""

    breakpoints: tuple[float, ...]
    graphs: tuple[DiGraph, ...]
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) < 2:
            raise ValueError("a schedule needs at least one interval")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not (len(self.graphs) == len(self.matrices) == len(bp) - 1):
            raise ValueError("need one graph and one matrix per interval")
        n = self.graphs[0].n
        for g, a in zip(self.graphs, self.matrices):
            if g.n != n:
                raise ValueError("all interval graphs must share the node set")
            if a.shape != (n, n):
                raise ValueError(f"matrix shape {a.shape} does not fit {n} nodes")
            for i in range(n):
                for j in range(n):
                    if i != j:
                        has = (j + 1, i + 1) in g.edges
                        if has != (a[i, j] != 0.0):
                            raise ValueError(
                                f"entry ({i + 1}, {j + 1}) disagrees with the interval graph"
                            )

    @property
    def n(self) -> int:
        return self.graphs[0].n

    @property
    def span(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]


def schedule_from_family(
    tf: TimeFunction,
    breakpoints: Sequence[float],
    rng: np.random.Generator,
    chain_only: bool = False,
) -> LtvSchedule:
    """Random schedule whose interval graphs are members of the family.

    With ``chain_only`` every interval keeps just the chain skeleton (the
    family's minimal member), which is the canonical rank-deficient
    witness for control sets missing a source.
    """
    problems = validate_time_function(tf)
    if problems:
        raise ValueError("invalid time function: " + "; ".join(problems))
    graphs = []
    matrices = []
    skeleton = DiGraph(tf.n, tf.chains.chain_edges)
    for _ in range(len(breakpoints) - 1):
        g = skeleton if chain_only else sample_member(tf, rng)
        graphs.append(g)
        matrices.append(sample_matrix(g, rng, DIAG_ZERO if chain_only else DIAG_MIXED))
    return LtvSchedule(tuple(breakpoints), tuple(graphs), tuple(matrices))


def schedule_from_edges(
    tf: TimeFunction,
    breakpoints: Sequence[float],
    per_interval_edges: Sequence[Iterable[Edge]],
    seed: int = 0,
) -> LtvSchedule:
    """Schedule built from explicit per-interval optional-edge sets.

    Each interval graph is the chain skeleton plus the listed edges, all
    of which must be admissible for the family; weights are drawn
    deterministically from ``seed``.
    """
    problems = validate_time_function(tf)
    if problems:
        raise ValueError("invalid time function: " + "; ".join(problems))
    if len(per_interval_edges) != len(breakpoints) - 1:
        raise ValueError("need one edge set per interval")
    admissible = optional_edges(tf)
    rng = np.random.default_rng(seed)
    graphs = []
    matrices = []
    for extra in per_interval_edges:
        extra = frozenset((int(u), int(v)) for u, v in extra)
        bad = extra - admissible - tf.chains.chain_edges
        if bad:
            raise ValueError(f"edges {sorted(bad)} are not admissible for this family")
        g = DiGraph(tf.n, tf.chains.chain_edges | extra)
        graphs.append(g)
        # Self-loops in the interval graph pin the matching diagonal entry.
        a = sample_matrix(g, rng, DIAG_ZERO)
        for v in range(1, tf.n + 1):
            if (v, v) in extra:
                a[v - 1, v - 1] = _nonzero(rng)
        matrices.append(a)
    return LtvSchedule(tuple(breakpoints), tuple(graphs), tuple(matrices))


def _clip_pieces(schedule: LtvSchedule, t_from: float, t_to: float):
    """(matrix, start, stop) triples covering [t_from, t_to]."""
    lo, hi = schedule.span
    if not (lo - 1e-12 <= t_from <= t_to <= hi + 1e-12):
        raise ValueError(f"[{t_from}, {t_to}] leaves the schedule span [{lo}, {hi}]")
    pieces = []
    bp = schedule.breakpoints
    for i, a in enumerate(schedule.matrices):
        start = max(bp[i], t_from)
        stop = min(bp[i + 1], t_to)
        if stop > start:
            pieces.append((a, start, stop))
    return pieces


def transition_matrix(schedule: LtvSchedule, t_from: float, t_to: float) -> np.ndarray:
    """State propagator over [t_from, t_to]: the ordered product of the
    per-interval matrix exponentials (exact for constant pieces)."""
    phi = np.eye(schedule.n)
    for a, start, stop in _clip_pieces(schedule, t_from, t_to):
        phi = expm(a * (stop - start)) @ phi
    return phi


@lru_cache(maxsize=8)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(points)


def _gramian_factor(
    schedule: LtvSchedule, controls: Iterable[int], points_per_piece: int
) -> np.ndarray:
    """F with F F^T equal to the quadrature Gramian at the final time.

    Per constant piece the integrand is analytic, so Gauss-Legendre with
    a handful of points per piece converges fast; the rank is read off F
    instead of F F^T to avoid squaring the condition number.
    """
    b = input_matrix(schedule.n, controls)
    t_end = schedule.breakpoints[-1]
    xs, ws = _leggauss(points_per_piece)
    cols = []
    suffix = np.eye(schedule.n)  # transition from the current piece's end to t_end
    for i in reversed(range(len(schedule.matrices))):
        a = schedule.matrices[i]
        start, stop = schedule.breakpoints[i], schedule.breakpoints[i + 1]
        half = (stop - start) / 2.0
        mid = (stop + start) / 2.0
        for x, w in zip(xs, ws):
            tau = mid + half * x
            phi = suffix @ expm(a * (stop - tau))
            cols.append(np.sqrt(w * half) * (phi @ b))
        suffix = suffix @ expm(a * (stop - start))
    return np.hstack(cols)


def controllability_gramian(
    schedule: LtvSchedule, controls: Iterable[int], points_per_piece: int = 16
) -> np.ndarray:
    """The Gramian of the schedule over its whole span, by composite
    Gauss-Legendre quadrature; symmetric positive semidefinite."""
    f = _gramian_factor(schedule, controls, points_per_piece)
    return f @ f.T


def ltv_gramian_rank(
    schedule: LtvSchedule, controls: Iterable[int], points_per_piece: int = 16
) -> int:
    """Numerical Gramian rank; full rank certifies controllability over
    the schedule span."""
    if points_per_piece < 1:
        raise ValueError("points_per_piece must be at least 1")
    return numeric_rank(_gramian_factor(schedule, controls, points_per_piece))


@dataclass(frozen=True)
class LtvFamilyReport:
    """Gramian-rank checks of random schedules drawn from one family."""

    trials: int
    sources_full_rank: int
    deficient_checks: int
    deficient_confirmed: int
    consistent: bool


def verify_ltv_family(
    tf: TimeFunction, trials: int = 20, seed: int = 0, pieces: int = 3
) -> LtvFamilyReport:
    """Check the family-level controllability predictions empirically.

    Per trial, a random schedule drawn from the family must have full
    Gramian rank when driven from the chain sources.  The converse is a
    family-level statement (only *some* member need fail for a control
    set missing a source), so the deficiency check runs on the canonical
    minimal member: the chain-only schedule, where every node upstream of
    the missing source is unreachable for any weights.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    problems = validate_time_function(tf)
    if problems:
        raise ValueError("invalid time function: " + "; ".join(problems))
    sources = sorted(tf.chains.sources)
    n = tf.n
    full = 0
    deficient_checks = 0
    deficient_confirmed = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        p = int(rng.integers(1, pieces + 1))
        breakpoints = np.cumsum(np.concatenate(([0.0], rng.uniform(0.3, 1.2, p))))
        sched = schedule_from_family(tf, tuple(breakpoints), rng)
        if ltv_gramian_rank(sched, sources) == n:
            full += 1
        reduced = _control_set_missing_a_source(tf, rng)
        if reduced is not None:
            deficient_checks += 1
            lean = schedule_from_family(tf, tuple(breakpoints), rng, chain_only=True)
            if ltv_gramian_rank(lean, reduced) < n:
                deficient_confirmed += 1
    consistent = full == trials and deficient_confirmed == deficient_checks
    return LtvFamilyReport(trials, full, deficient_checks, deficient_confirmed, consistent)


def _control_set_missing_a_source(
    tf: TimeFunction, rng: np.random.Generator
) -> frozenset[int] | None:
    """A nonempty control set that misses at least one source, or None
    when the graph is a single node."""
    sources = sorted(tf.chains.sources)
    others = sorted(tf.chains.nodes - tf.chains.sources)
    dropped = sources[int(rng.integers(len(sources)))]
    keep = [s for s in sources if s != dropped]
    if not keep:
        if not others:
            return None
        keep = [others[int(rng.integers(len(others)))]]
    return frozenset(keep)

"""Numerical cross-validation of the combinatorial verdicts.

Weight matrices are drawn from a graph's qualitative class (entry (i, j)
nonzero exactly when the edge (j, i) exists; diagonals free).  Every
numerical rank comes from one routine that grows an orthonormal basis
of the reachable subspace a column at a time, with deflation (the
orthogonal staircase of Van Dooren), so no power of a system matrix is
ever formed.  LTI controllability is the dimension of Krylov(A, B); a
piecewise-constant time-varying schedule is controllable over its span
when its reachable subspace, built exactly piece by piece as
``R_k = expm(A_k h_k) R_(k-1) + Krylov(A_k, B)`` (the image of the
controllability Gramian), is the whole space.  The combinatorial side
predicts: a forcing control set gives full rank for *every* draw, while
a stalled one only guarantees that *some* member of the class is
rank-deficient, so the negative direction is checked on a member built
to be uncontrollable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .forcing import stalled_white_set
from .graphs import DiGraph, Edge, control_set
from .synthesis import (
    TimeFunction,
    optional_edges,
    sample_member,
    validate_time_function,
)

DIAG_ZERO = "zero"
DIAG_NONZERO = "nonzero"
DIAG_MIXED = "mixed"
_DIAG_MODES = (DIAG_ZERO, DIAG_NONZERO, DIAG_MIXED)

WEIGHT_LOW = 0.1
WEIGHT_HIGH = 2.0

# Deflation threshold per unit of max(1, ||A||_1).  Per that unit,
# rounding noise on the built uncontrollable members stayed below 1.2e-14
# (1000 stalled sets of random graphs, n <= 40), and genuine residuals on
# family members stayed above 1.4e-4 (n <= 40) and 4e-5 (n <= 300), so
# sqrt(eps) ~ 1.5e-8 sits orders of magnitude from both; a threshold of
# order n*eps would sit in the noise.
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


@lru_cache(maxsize=16)
def _support(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the off-diagonal entries the class of
    ``g`` makes nonzero, in sorted order."""
    pairs = np.array(sorted((v - 1, u - 1) for u, v in g.edges if u != v), dtype=np.intp)
    pairs.flags.writeable = False  # shared by every caller through the cache
    return tuple(pairs.reshape(-1, 2).T)


def sample_matrix(
    g: DiGraph, rng: np.random.Generator, diag_mode: str = DIAG_MIXED
) -> np.ndarray:
    """One matrix from the qualitative class of ``g``.

    Off-diagonal entry (i, j) is nonzero exactly when the edge (j, i)
    exists; magnitudes are uniform in [0.1, 2] with uniform signs, so
    nothing sits numerically close to zero.  The diagonal is free:
    ``diag_mode`` forces it all-zero, all-nonzero, or flips a coin per
    entry.  All of it comes from one draw of the generator.
    """
    if diag_mode not in _DIAG_MODES:
        raise ValueError(f"unknown diagonal mode {diag_mode!r}")
    rows, cols = _support(g)
    e = len(rows)
    u = rng.random((3, e + g.n))  # magnitudes, signs, diagonal coins
    w = np.where(u[1] < 0.5, -1.0, 1.0) * (WEIGHT_LOW + (WEIGHT_HIGH - WEIGHT_LOW) * u[0])
    a = np.zeros((g.n, g.n))
    a[rows, cols] = w[:e]
    if diag_mode == DIAG_NONZERO:
        np.fill_diagonal(a, w[e:])
    elif diag_mode == DIAG_MIXED:
        np.fill_diagonal(a, np.where(u[2, e:] < 0.5, w[e:], 0.0))
    return a


def input_matrix(n: int, controls: Iterable[int]) -> np.ndarray:
    """Identity columns for the (sorted) control nodes."""
    z = sorted(control_set(controls, n))
    b = np.zeros((n, len(z)))
    for col, node in enumerate(z):
        b[node - 1, col] = 1.0
    return b


def _reachable_basis(
    a: np.ndarray, b: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Orthonormal rows spanning Krylov(a, b) plus the columns of ``start``.

    Candidates are the columns of ``b``, then ``a @ q`` for every kept
    row ``q``.  Each is orthogonalized twice against the rows kept so far
    (Gram-Schmidt applied twice is orthogonal to working precision) and
    kept, normalized, when its residual norm is above the tolerance, or
    deflated otherwise.  The kept rows then span an ``a``-invariant
    subspace that contains ``b``.  The columns of ``start`` come last,
    scaled to unit norm; they are kept the same way but not grown, since
    ``a`` times them need not be reachable.
    """
    n = a.shape[0]
    tol = _SQRT_EPS * max(1.0, float(np.abs(a).sum(axis=0).max()))
    grown = list(b.T)
    fixed = [] if start is None else list((start / np.linalg.norm(start, axis=0)).T)
    basis = np.empty((n, n))
    k = 0
    # ``grown`` lengthens while it is iterated, so candidate i is a Krylov
    # one exactly when i < len(grown).  ``.dot`` costs about half of ``@``
    # per call on these small operands, and this loop is the oracle's cost.
    for i, c in enumerate(chain(grown, fixed)):
        if k:
            q = basis[:k]
            c = c - q.dot(c).dot(q)
            c -= q.dot(c).dot(q)
        r = math.sqrt(c.dot(c))
        if r <= tol:
            continue
        basis[k] = c / r
        k += 1
        if k == n:
            break
        if i < len(grown):
            grown.append(a.dot(basis[k - 1]))
    return basis[:k]


def kalman_rank(a: np.ndarray, controls: Iterable[int]) -> int:
    """Rank of [B, AB, ..., A^(n-1)B] with B the control identity columns,
    read off as the dimension of Krylov(A, B) without forming the powers."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"system matrix must be square, got shape {a.shape}")
    return len(_reachable_basis(a, input_matrix(n, controls)))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of sampling the qualitative class against the forcing verdict.

    For a stalled control set the report carries the stalled white nodes
    and a member of the class built to be rank-deficient, with its rank.
    ``consistent`` is False only in the impossible cases: the controls
    force the whole graph yet some draw came out rank-deficient, or they
    stall yet the built member came out at full rank.
    """

    expected_zfs: bool
    trials: int
    full_rank: int
    consistent: bool
    stalled_white: frozenset[int]
    witness: np.ndarray | None
    witness_rank: int | None


def _uncontrollable_witness(g: DiGraph, white: frozenset[int]) -> np.ndarray:
    """A member of the class of ``g`` with ``x @ A == 0``, ``x`` the
    indicator of the stalled ``white`` set.

    The controls are black, so ``x @ B == 0`` too, and by the PBH test the
    member is not controllable.  Every edge gets a nonzero weight, so the
    off-diagonal support is exactly the class's.  Each node's white
    out-neighbours get +1, -1, +1, ... (1, 1, -2 first for an odd count),
    which sum to zero; a white node with a single white out-neighbour
    gives it 1 and cancels it on its free diagonal (a black one never has
    a single one, which it would force).  Every other edge gets 1.  Zero
    sums keep the member well conditioned: cancelling all-ones columns on
    the diagonal instead rounded up to full rank on 3% of stalled sets of
    random graphs with n <= 40.
    """
    n = g.n
    a = np.zeros((n, n))
    a[_support(g)] = 1.0
    is_white = np.zeros(n, dtype=bool)
    is_white[[v - 1 for v in white]] = True
    for j in range(n):
        hits = np.flatnonzero(is_white & (a[:, j] != 0.0))
        if len(hits) == 1:
            a[j, j] = -1.0
        elif len(hits) > 1:
            signs = np.resize([1.0, -1.0], len(hits))
            if len(hits) % 2:
                signs[:3] = (1.0, 1.0, -2.0)
            a[hits, j] = signs
    return a


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
    b = input_matrix(g.n, z)
    full = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        a = sample_matrix(g, rng, _DIAG_MODES[trial % len(_DIAG_MODES)])
        full += len(_reachable_basis(a, b)) == g.n
    stalled = stalled_white_set(g, z)
    if not stalled:
        return OracleReport(True, trials, full, full == trials, stalled, None, None)
    witness = _uncontrollable_witness(g, stalled)
    rank = len(_reachable_basis(witness, b))
    return OracleReport(False, trials, full, rank < g.n, stalled, witness, rank)


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
        if not all(map(math.isfinite, bp)):
            raise ValueError("breakpoints must be finite")
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
            mismatch = a != 0.0
            mismatch[_support(g)] ^= True
            np.fill_diagonal(mismatch, False)
            if mismatch.any():
                i, j = np.argwhere(mismatch)[0]
                raise ValueError(f"entry ({i + 1}, {j + 1}) disagrees with the interval graph")

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
        # Self-loops in the interval graph pin the matching diagonal
        # entries; the others stay zero.
        a = sample_matrix(g, rng, DIAG_NONZERO)
        bare = [v - 1 for v in range(1, tf.n + 1) if (v, v) not in extra]
        a[bare, bare] = 0.0
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
    from scipy.linalg import expm  # loaded on first use: most commands never need scipy

    phi = np.eye(schedule.n)
    for a, start, stop in _clip_pieces(schedule, t_from, t_to):
        phi = expm(a * (stop - start)) @ phi
    return phi


def ltv_gramian_rank(schedule: LtvSchedule, controls: Iterable[int]) -> int:
    """Rank of the controllability Gramian over the schedule span; full
    rank certifies controllability over the span.

    The Gramian's image is the reachable subspace, built exactly per
    constant piece of length h_k:
    ``R_k = expm(A_k h_k) R_(k-1) + Krylov(A_k, B)``.
    """
    from scipy.linalg import expm

    n = schedule.n
    b = input_matrix(n, controls)
    basis = np.empty((0, n))
    bp = schedule.breakpoints
    for a, start, stop in zip(schedule.matrices, bp, bp[1:]):
        carried = expm(a * (stop - start)) @ basis.T if len(basis) else None
        basis = _reachable_basis(a, b, carried)
        if len(basis) == n:
            break
    return len(basis)


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

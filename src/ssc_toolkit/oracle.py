"""Numerical cross-validation of the combinatorial verdicts.

Weight matrices are drawn from a graph's qualitative class (entry (i, j)
nonzero exactly when the edge (j, i) exists; diagonals free) by one
sampler, ``_sample_stack``.  Every numerical rank is the dimension of a
reachable subspace grown an orthonormal column at a time, with
deflation (the orthogonal staircase of Van Dooren), so no power of a
system matrix is ever formed.  ``verify_ssc_numeric`` checks LTI
controllability, the dimension of Krylov(A, B), on many draws: up to
``_STACK_MAX_N`` nodes the draws of a block step through the staircase
together (``_krylov_ranks``), above it one at a time
(``_reachable_basis``).  ``ltv_gramian_rank`` checks a piecewise-constant
time-varying schedule, its breakpoints and one matrix per piece, which
``schedule_from_edges`` draws: it is controllable over its span when its
reachable subspace, built exactly piece by piece as
``R_k = expm(A_k h_k) R_(k-1) + Krylov(A_k, B)`` (the image of the
controllability Gramian), is the whole space; ``expm`` runs, and scipy is
imported, only for a later piece while that subspace is short of full
rank.  The combinatorial side
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

from .forcing import TimeFunction, stalled_white_set
from .graphs import DiGraph, Edge, _unpack, control_set, row_nodes

DIAG_ZERO = "zero"
DIAG_NONZERO = "nonzero"
DIAG_MIXED = "mixed"
# The diagonal entry of a draw is kept when its coin is below this.  Coins
# are uniform in [0, 1), so 1.0 keeps every entry and 0.0 none.
_DIAG_KEEP = {DIAG_ZERO: 0.0, DIAG_NONZERO: 1.0, DIAG_MIXED: 0.5}
_DIAG_MODES = tuple(_DIAG_KEEP)

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
    ``g`` makes nonzero, in sorted order: the nonzeros of the transposed
    forcing masks, which ``np.nonzero`` lists row by row."""
    support = np.nonzero(_unpack(g.force_masks[1:], g.n).T)
    for index in support:
        index.flags.writeable = False  # shared by every caller through the cache
    return support


def _sample_stack(g: DiGraph, rng: np.random.Generator, modes: Sequence[str]) -> np.ndarray:
    """``len(modes)`` matrices from the qualitative class of ``g``, stacked.

    Off-diagonal entry (i, j) is nonzero exactly when the edge (j, i)
    exists; magnitudes are uniform in [0.1, 2] with uniform signs, so
    nothing sits numerically close to zero.  The diagonal is free: each
    matrix's mode forces it all-zero, all-nonzero, or flips a coin per
    entry.  Matrix t comes from row t of one draw of shape
    ``(len(modes), 3, e + n)`` (magnitudes, signs, diagonal coins), so
    consecutive smaller stacks from one generator, stacks of one
    included, give the same matrices as one stack of all their modes.
    """
    try:
        keep = np.array([_DIAG_KEEP[mode] for mode in modes])
    except KeyError as exc:
        raise ValueError(f"unknown diagonal mode {exc.args[0]!r}") from None
    rows, cols = _support(g)
    e, n, t = len(rows), g.n, len(modes)
    u = rng.random((t, 3, e + n))
    # Negative exactly when the sign coin is below 0.5: subtracting 0.5
    # keeps the sign of every double in [0, 1).  That is one numpy call
    # fewer than a sign array times the magnitudes, and the fixed cost of
    # a call is most of a small draw's time.
    w = np.copysign(WEIGHT_LOW + (WEIGHT_HIGH - WEIGHT_LOW) * u[:, 0], u[:, 1] - 0.5)
    a = np.zeros((t, n, n))
    a[:, rows, cols] = w[:, :e]
    np.copyto(a.reshape(t, n * n)[:, :: n + 1], w[:, e:], where=u[:, 2, e:] < keep[:, None])
    return a


def sample_matrix(
    g: DiGraph, rng: np.random.Generator, diag_mode: str = DIAG_MIXED
) -> np.ndarray:
    """One matrix from the qualitative class of ``g``: a stack of one."""
    return _sample_stack(g, rng, (diag_mode,))[0]


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

    The staircase for one matrix: an LTV piece with the directions
    carried from the pieces before it as ``start``, the built
    uncontrollable member, or a draw above ``_STACK_MAX_N`` nodes.

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


# Bytes of system matrices drawn and ranked together.  Blocks are
# consecutive in the trial stream, so the draws do not depend on it.
# 512 KiB ranked as fast as 1 MiB at n = 12-80, and a 100-trial call at
# n = 40 peaks at 1.8 MiB of numpy arrays instead of 2.6 MiB.
_STACK_BYTES = 1 << 19
# Largest n ranked in lockstep.  Against one staircase per draw, 100
# draws in blocks of this budget ranked 10x faster at n = 4, 3x at
# n = 40 and 1.5x at n = 80, about even at n = 100-128 and 2x slower at
# n = 200: there the arithmetic, not the numpy call overhead a stack
# saves, dominates, and each member is orthogonalized against the
# longest basis in its block.
_STACK_MAX_N = 80


def _krylov_ranks(stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``len(_reachable_basis(a, b))`` for every matrix ``a`` of ``stack``.

    The staircase of ``_reachable_basis`` with all matrices stepping
    together: step i takes candidate i of each matrix (column i of ``b``,
    then ``a @ q`` for its kept row ``q`` number i - m), orthogonalizes
    it twice against the first ``max(k)`` rows (a matrix with k < max(k)
    kept rows has zeros in the rest) and keeps it under the same
    per-matrix tolerance.  A matrix whose basis is full, or whose
    candidates have run out (its candidate is then zero), keeps nothing
    more; the steps end when no matrix has a candidate left.
    """
    t, n, _ = stack.shape
    m = b.shape[1]
    tol = _SQRT_EPS * np.maximum(1.0, np.abs(stack).sum(axis=1).max(axis=1))
    basis = np.zeros((t, n, n))
    k = np.zeros(t, dtype=np.intp)
    for i in range(m + n):
        live = (k < n) & (k > i - m)
        if not live.any():
            break
        if i < m:
            c = np.repeat(b[None, :, i], t, axis=0)
        else:
            c = (stack @ basis[:, i - m, :, None])[..., 0]
        top = k.max()
        if top:
            q = basis[:, :top]
            qt = q.transpose(0, 2, 1)
            c -= (qt @ (q @ c[..., None]))[..., 0]
            c -= (qt @ (q @ c[..., None]))[..., 0]
        r = np.sqrt(np.einsum("ij,ij->i", c, c))
        kept = np.flatnonzero(live & (r > tol))
        basis[kept, k[kept]] = c[kept] / r[kept, None]
        k[kept] += 1
    return k


def _trial_ranks(g: DiGraph, b: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Krylov ranks of ``trials`` draws from one stream seeded with
    ``seed``, trial t with diagonal mode number t mod 3, drawn in
    blocks of at most ``_STACK_BYTES`` of matrices."""
    rng = np.random.default_rng(seed)
    n = g.n
    block = max(1, _STACK_BYTES // (8 * n * n))
    ranks = []
    for first in range(0, trials, block):
        modes = [_DIAG_MODES[t % 3] for t in range(first, min(trials, first + block))]
        stack = _sample_stack(g, rng, modes)
        if n <= _STACK_MAX_N:
            ranks.append(_krylov_ranks(stack, b))
        else:
            ranks.append(np.array([len(_reachable_basis(a, b)) for a in stack]))
    return np.concatenate(ranks)


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

    Draws cycle through the three diagonal modes by trial index and all
    come, in trial order, from one random stream seeded with ``seed``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    z = control_set(controls, g.n)
    b = input_matrix(g.n, z)
    full = int(np.count_nonzero(_trial_ranks(g, b, trials, seed) == g.n))
    stalled = stalled_white_set(g, z)
    if not stalled:
        return OracleReport(True, trials, full, full == trials, stalled, None, None)
    witness = _uncontrollable_witness(g, stalled)
    rank = len(_reachable_basis(witness, b))
    return OracleReport(False, trials, full, rank < g.n, stalled, witness, rank)


# -- time-varying schedules ----------------------------------------------


class InadmissibleEdgesError(ValueError):
    """Schedule edges that no member of the family has; ``edges`` holds
    them as sorted id pairs."""

    def __init__(self, edges: Iterable[Edge]):
        self.edges = sorted(edges)
        super().__init__(f"edges {self.edges} are not admissible for this family")


@dataclass(frozen=True)
class LtvSchedule:
    """A piecewise-constant system matrix: one weight matrix per interval
    between consecutive breakpoints."""

    breakpoints: tuple[float, ...]
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
        if len(self.matrices) != len(bp) - 1:
            raise ValueError("need one matrix per interval")
        n = self.n
        for a in self.matrices:
            if a.shape != (n, n):
                raise ValueError(f"matrix shape {a.shape} does not fit {n} nodes")

    @property
    def n(self) -> int:
        return len(self.matrices[0])


def schedule_from_edges(
    tf: TimeFunction,
    breakpoints: Sequence[float],
    pieces: Sequence[DiGraph],
    seed: int = 0,
) -> LtvSchedule:
    """Schedule built from explicit per-interval optional edges, one graph
    on the family's nodes per interval.

    Each interval graph is the chain skeleton plus its piece's edges, all
    of which must be admissible for the family, that is edges of its
    maximal member; weights are drawn deterministically from ``seed``.
    """
    n = tf.n
    member = tf.member_rows
    skeleton = tf.skeleton.rows
    rng = np.random.default_rng(seed)
    matrices = []
    for piece in pieces:
        if piece.n != n:
            raise ValueError(f"a piece on {piece.n} nodes does not fit {n} nodes")
        stray = [row & ~ok for row, ok in zip(piece.rows, member)]
        if any(stray):
            raise InadmissibleEdgesError((u, v) for u, nodes in row_nodes(stray) for v in nodes)
        rows = [row | more for row, more in zip(skeleton, piece.rows)]
        # Self-loops in the interval graph pin the matching diagonal
        # entries; the others stay zero.  Chain edges are never loops.
        a = sample_matrix(DiGraph.from_rows(n, rows), rng, DIAG_NONZERO)
        bare = [not rows[v] >> (v - 1) & 1 for v in range(1, n + 1)]
        np.copyto(a.reshape(n * n)[:: n + 1], 0.0, where=bare)
        matrices.append(a)
    return LtvSchedule(tuple(breakpoints), tuple(matrices))


def ltv_gramian_rank(schedule: LtvSchedule, controls: Iterable[int]) -> int:
    """Rank of the controllability Gramian over the schedule span; full
    rank certifies controllability over the span.

    The Gramian's image is the reachable subspace, built exactly per
    constant piece of length h_k:
    ``R_k = expm(A_k h_k) R_(k-1) + Krylov(A_k, B)``.  The build stops at
    full rank, so ``expm`` runs only for a later piece that carries a
    subspace short of it.
    """
    n = schedule.n
    b = input_matrix(n, controls)
    basis = np.empty((0, n))
    bp = schedule.breakpoints
    for a, start, stop in zip(schedule.matrices, bp, bp[1:]):
        carried = None
        if len(basis):
            # imported here, not at the top: it costs a fresh process about
            # 0.25 s, and a first piece at full rank never needs it
            from scipy.linalg import expm

            carried = expm(a * (stop - start)) @ basis.T
        basis = _reachable_basis(a, b, carried)
        if len(basis) == n:
            break
    return len(basis)

"""Critical edge-sets: how far a controlled network can be perturbed.

The *critical additive set* of a network with a given zero forcing set is
a maximum-cardinality edge set any subset of which can be added while the
controls keep forcing everything; the *critical subtractive set* is the
removal-side mirror.  The sets depend on the forcing schedule chosen, the
numbers do not: additions top out at the maximal-member edge count minus
the current one, removals at everything except one chain skeleton.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .forcing import (
    LOWEST_FORCER,
    TieBreakPolicy,
    TimeFunction,
    _drain,
    _mask_of,
    _require_all_black,
    forcing_schedule,
)
from .graphs import ConsistencyError, DiGraph, Edge, control_set, mask_nodes, row_nodes
from .synthesis import perfect_edge_count, perfect_graph

ADDITIVE = "additive"
SUBTRACTIVE = "subtractive"
INTER_NETWORK = "inter-network"

DEFAULT_BUDGET = 2**20
SAMPLED_SUBSETS = 10_000

# Subsets are verified this many at a time, one bit lane each of the ints
# a shared closure works on: O((n + k) * _LANES / 8) bytes for k toggles.
_LANES = 1 << 14
# The sampled scan draws at most about this many uniforms at once.
_DRAW = 1 << 20


@dataclass(frozen=True)
class EdgeSetReport:
    """A computed critical (or inter-network) edge set with its bound.

    ``graph`` is the set as a :class:`DiGraph` on the network's nodes, so
    ``edges`` and ``cardinality`` are its edges and edge count.  ``bound``
    is the closed-form cardinality the set must attain; the producers in
    this module always emit sets of exactly that size with the witness
    (chains, times) that generated them, so results are reproducible.
    """

    kind: str
    graph: DiGraph
    bound: int
    witness: TimeFunction | None = None

    def __post_init__(self):
        if self.kind not in (ADDITIVE, SUBTRACTIVE, INTER_NETWORK):
            raise ValueError(f"unknown report kind {self.kind!r}")
        if self.cardinality != self.bound:
            raise ValueError(
                f"report carries {self.cardinality} edges but claims a bound of {self.bound}"
            )

    @property
    def edges(self) -> frozenset[Edge]:
        return self.graph.edges

    @property
    def cardinality(self) -> int:
        return self.graph.edge_count


def critical_additive_number(g: DiGraph, controls: Iterable[int]) -> int:
    """Maximum number of edges whose every subset can be added safely."""
    z = control_set(controls, g.n)
    _require_all_black(g, _drain(g, z))
    return perfect_edge_count(g.n, len(z)) - g.edge_count


def critical_subtractive_number(g: DiGraph, controls: Iterable[int]) -> int:
    """Maximum number of edges whose every subset can be removed safely."""
    z = control_set(controls, g.n)
    _require_all_black(g, _drain(g, z))
    return g.edge_count - g.n + len(z)


def critical_additive_set(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> EdgeSetReport:
    """A critical additive edge-set: the maximal member's edges not in ``g``.

    Different tie-break policies may return different, equally sized sets.
    """
    z = control_set(controls, g.n)
    tf = forcing_schedule(g, z, policy)
    perf = perfect_graph(tf)
    if any(row & ~p for row, p in zip(g.rows, perf.rows)):
        raise ConsistencyError("graph is not contained in its own maximal member")
    added = DiGraph.from_rows(g.n, [p & ~row for row, p in zip(g.rows, perf.rows)])
    bound = perfect_edge_count(g.n, len(z)) - g.edge_count
    if added.edge_count != bound:
        raise ConsistencyError(f"additive set has {added.edge_count} edges, bound is {bound}")
    return EdgeSetReport(ADDITIVE, added, bound, witness=tf)


def critical_subtractive_set(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> EdgeSetReport:
    """A critical subtractive edge-set: everything outside one chain skeleton."""
    z = control_set(controls, g.n)
    tf = forcing_schedule(g, z, policy)
    removed = DiGraph.from_rows(g.n, [row & ~c for row, c in zip(g.rows, tf.skeleton.rows)])
    bound = g.edge_count - g.n + len(z)
    if removed.edge_count != bound:
        raise ConsistencyError(f"subtractive set has {removed.edge_count} edges, bound is {bound}")
    return EdgeSetReport(SUBTRACTIVE, removed, bound, witness=tf)


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of replaying perturbation subsets against the forcing test."""

    passed: bool
    exhaustive: bool
    subsets_tested: int
    counterexample: frozenset[Edge] | None = None


def _sweep_order(g: DiGraph, tf: TimeFunction | None) -> tuple[int, ...]:
    """Closure order for the subsets: the witness's forcers by ``tmax``, then
    the remaining nodes by id.

    On a member of the witness's family every forcer has exactly one white
    out-neighbor by the time the sweep reaches it, so one sweep blackens
    the graph.  The order changes only the speed: closures reach the same
    fixed point in any order.  Without a witness of ``g``'s size the
    sweep runs in id order.
    """
    if tf is None or tf.n != g.n:
        return tuple(g.nodes)
    forcers = sorted(tf.chains.successor, key=tf.tmax.__getitem__)
    return (*forcers, *(v for v in g.nodes if v not in tf.chains.successor))


def _failing_lanes(g: DiGraph, order, z_mask: int, toggles, columns, full: int) -> int:
    """The lanes in which ``z_mask`` stops forcing ``g``, all lanes in one closure.

    Lane ``i`` (bit ``i`` of ``full``) is one variant of ``g``: toggle
    ``(u, bit)`` flips the edge ``bit`` of u's forcing mask in the lanes set
    in its column.  ``white[v]`` holds the lanes in which v is still white,
    and each sweep applies the color-change rule to every lane at once: a
    forcer's white out-neighbors are counted in two accumulators, ``one``
    (at least one) and ``two`` (at least two).  Lanes evolve exactly as
    separate closures would, and sweeps repeat until no lane changes.
    This is the one closure kept apart from :mod:`.forcing`'s worklist on
    purpose: a worklist follows the ready forcers of one graph, while every
    lane here is a different graph, and a sweep shares each bit operation.
    """
    n = g.n
    rows = list(g.force_masks)
    toggled: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (u, bit), lanes in zip(toggles, columns):
        if not bit or not lanes:
            continue
        if lanes == full:
            rows[u] ^= bit
            continue
        # the edge is present where it was toggled on, or where it was in
        # g and not toggled off
        toggled[u].append((bit.bit_length(), full ^ lanes if rows[u] & bit else lanes))
        rows[u] &= ~bit
    fixed = [mask_nodes(r) for r in rows]
    white = [0] + [full] * n
    for v in mask_nodes(z_mask):
        white[v] = 0
    changed = True
    while changed and any(white):
        changed = False
        for u in order:
            black = full ^ white[u]
            if not black:
                continue
            one = two = 0
            for v in fixed[u]:
                w = white[v]
                two |= one & w
                one |= w
            for v, present in toggled[u]:
                w = white[v] & present
                two |= one & w
                one |= w
            force = black & (one ^ two)  # exactly one white out-neighbor
            if force:
                changed = True
                keep = full ^ force
                for v in fixed[u]:
                    white[v] &= keep
                for v, present in toggled[u]:
                    white[v] &= full ^ (force & present)
    fails = 0
    for w in white:
        fails |= w
    return fails


@lru_cache(maxsize=16)
def _gray_lanes(b: int) -> tuple[int, ...]:
    """Column ``pos`` (for ``pos < b``) of the gray codes ``0..2**b - 1``:
    bit ``l`` is set iff ``gray(l)`` has bit ``pos``."""
    lanes = np.arange(1 << b)
    gray = lanes ^ lanes >> 1
    return tuple(
        int.from_bytes(np.packbits(gray >> pos & 1, bitorder="little").tobytes(), "little")
        for pos in range(b)
    )


def _gray_blocks(k: int):
    """The subsets of k toggles in gray order, as ``(width, columns)`` blocks.

    Subset ``i`` toggles position ``pos`` iff ``gray(i) = i ^ (i >> 1)`` has
    bit ``pos``.  With ``width = 2**b`` lanes per block, lane ``l`` of block
    ``j`` is subset ``i = j * width + l``, and ``gray(i)`` is ``gray(l)``
    with bit ``b - 1`` flipped when j is odd, above ``gray(j) << b``: the
    low columns are fixed lane patterns and the high ones are constant per
    block.
    """
    width = min(2**k, _LANES)
    b = width.bit_length() - 1
    full = (1 << width) - 1
    low = _gray_lanes(b)
    for j in range(2**k >> b):
        columns = list(low)
        if j & 1:
            columns[b - 1] ^= full
        high = j ^ j >> 1
        columns.extend(full if high >> pos & 1 else 0 for pos in range(k - b))
        yield width, columns


def _draw_columns(rng: np.random.Generator, rows: int, k: int) -> list[int]:
    """The next ``rows`` random subsets of k toggles as k packed columns:
    bit ``r`` of column ``pos`` says whether subset ``r`` keeps ``pos``.

    Row chunks of the ``(rows, k)`` draw consume the generator's stream
    exactly as one draw does, and hold at most about ``_DRAW`` uniforms.
    """
    packed = np.zeros((k, (rows + 7) // 8), np.uint8)
    step = max(8, _DRAW // k // 8 * 8)
    for r in range(0, rows, step):
        keep = rng.random((min(step, rows - r), k)) < 0.5
        packed[:, r // 8 : (r + len(keep) + 7) // 8] = np.packbits(
            keep.T, axis=1, bitorder="little"
        )
    return [int.from_bytes(c.tobytes(), "little") for c in packed]


def _sampled_blocks(k: int, rng: np.random.Generator):
    """The k singletons, the full set, then ``SAMPLED_SUBSETS`` seeded random
    subsets, as ``(width, columns)`` blocks of consecutive lanes."""
    total = k + 1 + SAMPLED_SUBSETS
    for lo in range(0, total, _LANES):
        hi = min(lo + _LANES, total)
        columns = [1 << (t - lo) if lo <= t < hi else 0 for t in range(k)]
        if lo <= k < hi:
            columns = [c | 1 << (k - lo) for c in columns]
        first = max(lo, k + 1)
        if first < hi:
            drawn = _draw_columns(rng, hi - first, k)
            columns = [c | d << (first - lo) for c, d in zip(columns, drawn)]
        yield hi - lo, columns


def _scan(g: DiGraph, order, z_mask: int, toggles, blocks) -> tuple[int, list[int] | None]:
    """Test the subsets of ``blocks`` in order, one shared closure per block.

    Every subset is one bit lane of the block's closure, so a block costs
    about as much as one closure on ints of ``width`` bits.  The scan stops
    at the first block with a failing lane and reports its lowest one, the
    subset a one-by-one scan would have met first.  Returns (subsets
    tested, the toggle positions of the first failing subset or None).
    """
    tested = 0
    for width, columns in blocks:
        fails = _failing_lanes(g, order, z_mask, toggles, columns, (1 << width) - 1)
        if fails:
            lane = (fails & -fails).bit_length() - 1
            return tested + lane + 1, [pos for pos, c in enumerate(columns) if c >> lane & 1]
        tested += width
    return tested, None


def _pairs(rows: Sequence[int]) -> list[Edge]:
    """The edges of ``rows`` (``rows[u]`` holding u's), in (u, v) order."""
    return [(u, v) for u, nodes in row_nodes(rows) for v in nodes]


def verify_edge_set(
    g: DiGraph,
    controls: Iterable[int],
    report: EdgeSetReport,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> VerificationOutcome:
    """Check that applying any subset of the report's edges keeps the
    controls a zero forcing set.

    Additive and inter-network subsets are added to ``g``, subtractive
    subsets removed.  Exhaustive when ``2**len(edges) <= budget``, in gray
    order; otherwise the singletons, the full set, and 10,000 seeded random
    subsets are tested.  Self-loop toggles never affect forcing, so they
    are counted but cost nothing.  Every subset gets its own lane of a
    closure shared by a block of subsets, so each subset's verdict is that
    of its own full closure; the report's witness sets only the number of
    sweeps the closure takes.  The report is read as rows: present and
    missing edges are row ANDs, and the toggles run in (u, v) order
    straight from the rows.

    Raises:
        ValueError: the report's set is on another node count than ``g``,
            or its edges are not new (additive) or not in ``g``
            (subtractive).
    """
    if report.graph.n != g.n:
        raise ValueError(
            f"the report's edge set is on {report.graph.n} nodes, the graph has {g.n}"
        )
    z = control_set(controls, g.n)
    z_mask = _mask_of(z)
    rows = report.graph.rows
    if report.kind in (ADDITIVE, INTER_NETWORK):
        present = _pairs([row & have for row, have in zip(rows, g.rows)])
        if present:
            raise ValueError(f"additive edges {present} are already in the graph")
    elif report.kind == SUBTRACTIVE:
        missing = _pairs([row & ~have for row, have in zip(rows, g.rows)])
        if missing:
            raise ValueError(f"subtractive edges {missing} are not in the graph")
    else:  # pragma: no cover - kinds are closed
        raise ValueError(report.kind)
    edges = _pairs(rows)
    # XOR-toggling covers both directions: additive subsets turn bits on,
    # subtractive subsets turn them off, starting from the same graph.
    # A self-loop toggles bit 0, which changes no mask.
    toggles = [(u, 0 if u == v else 1 << (v - 1)) for u, v in edges]
    order = _sweep_order(g, report.witness)
    k = len(edges)
    exhaustive = k == 0 or 2**k <= budget
    if exhaustive:
        blocks = _gray_blocks(k)
    else:
        blocks = _sampled_blocks(k, np.random.default_rng(seed))
    tested, failing = _scan(g, order, z_mask, toggles, blocks)
    if failing is None:
        return VerificationOutcome(True, exhaustive, tested)
    return VerificationOutcome(
        False, exhaustive, tested, frozenset(edges[pos] for pos in failing)
    )

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
from typing import Iterable

import numpy as np

from .forcing import (
    LOWEST_FORCER,
    TieBreakPolicy,
    _closure,
    _id_order,
    _mask_of,
    forcing_schedule,
)
from .graphs import ConsistencyError, DiGraph, Edge, control_set, mask_nodes
from .synthesis import (
    TimeFunction,
    perfect_edge_count,
    perfect_graph,
    validate_time_function,
)

ADDITIVE = "additive"
SUBTRACTIVE = "subtractive"
INTER_NETWORK = "inter-network"

DEFAULT_BUDGET = 2**20
SAMPLED_SUBSETS = 10_000


@dataclass(frozen=True)
class EdgeSetReport:
    """A computed critical (or inter-network) edge set with its bound.

    ``bound`` is the closed-form cardinality the set must attain; the
    producers in this module always emit ``len(edges) == bound`` and the
    witness (chains, times) that generated the set, so results are
    reproducible.
    """

    kind: str
    edges: frozenset[Edge]
    bound: int
    witness: TimeFunction | None = None

    def __post_init__(self):
        if self.kind not in (ADDITIVE, SUBTRACTIVE, INTER_NETWORK):
            raise ValueError(f"unknown report kind {self.kind!r}")
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in self.edges))
        if len(self.edges) != self.bound:
            raise ValueError(
                f"report carries {len(self.edges)} edges but claims a bound of {self.bound}"
            )

    @property
    def cardinality(self) -> int:
        return len(self.edges)


def critical_additive_number(g: DiGraph, controls: Iterable[int]) -> int:
    """Maximum number of edges whose every subset can be added safely."""
    z = control_set(controls, g.n)
    forcing_schedule(g, z)  # raises NotZfsError when the precondition fails
    return perfect_edge_count(g.n, len(z)) - g.edge_count


def critical_subtractive_number(g: DiGraph, controls: Iterable[int]) -> int:
    """Maximum number of edges whose every subset can be removed safely."""
    z = control_set(controls, g.n)
    forcing_schedule(g, z)
    return g.edge_count - g.n + len(z)


def critical_additive_set(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> EdgeSetReport:
    """A critical additive edge-set: the maximal member's edges not in ``g``.

    Different tie-break policies may return different, equally sized sets.
    """
    z = control_set(controls, g.n)
    record = forcing_schedule(g, z, policy)
    tf = TimeFunction.from_record(record)
    perf = perfect_graph(tf)
    if any(row & ~p for row, p in zip(g.rows, perf.rows)):
        raise ConsistencyError("graph is not contained in its own maximal member")
    edges = frozenset(
        (u, v) for u in g.nodes for v in mask_nodes(perf.rows[u] & ~g.rows[u])
    )
    bound = perfect_edge_count(g.n, len(z)) - g.edge_count
    if len(edges) != bound:
        raise ConsistencyError(f"additive set has {len(edges)} edges, bound is {bound}")
    return EdgeSetReport(ADDITIVE, edges, bound, witness=tf)


def critical_subtractive_set(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> EdgeSetReport:
    """A critical subtractive edge-set: everything outside one chain skeleton."""
    z = control_set(controls, g.n)
    record = forcing_schedule(g, z, policy)
    tf = TimeFunction.from_record(record)
    rows = list(g.rows)
    for u, v in record.chains.successor.items():
        rows[u] &= ~(1 << (v - 1))
    edges = frozenset((u, v) for u in g.nodes for v in mask_nodes(rows[u]))
    bound = g.edge_count - g.n + len(z)
    if len(edges) != bound:
        raise ConsistencyError(f"subtractive set has {len(edges)} edges, bound is {bound}")
    return EdgeSetReport(SUBTRACTIVE, edges, bound, witness=tf)


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of replaying perturbation subsets against the forcing test."""

    passed: bool
    exhaustive: bool
    subsets_tested: int
    counterexample: frozenset[Edge] | None = None


def _sweep_order(g: DiGraph, tf: TimeFunction | None) -> tuple[tuple[int, int], ...]:
    """Closure order for the subsets: the witness's forcers by ``tmax``, then
    the remaining nodes by id.

    On a member of the witness's family every forcer has exactly one white
    out-neighbor by the time the sweep reaches it, so one sweep blackens
    the graph.  The order changes only the speed: closures reach the same
    fixed point in any order.  Without a valid witness on exactly ``g``'s
    nodes the sweep runs in id order.
    """
    if tf is None or tf.chains.nodes != frozenset(g.nodes) or validate_time_function(tf):
        return _id_order(g.n)
    forcers = sorted(tf.chains.successor, key=tf.tmax.__getitem__)
    rest = [v for v in g.nodes if v not in tf.chains.successor]
    return tuple((v, 1 << (v - 1)) for v in forcers + rest)


def _subset_from_index(edges: list[Edge], subset_index: int) -> frozenset[Edge]:
    gray = subset_index ^ (subset_index >> 1)
    return frozenset(e for pos, e in enumerate(edges) if gray >> pos & 1)


def _scan(
    g: DiGraph, order, z_mask: int, toggles: list[tuple[int, int]]
) -> tuple[int, int | None]:
    """Exhaustively test every subset of the toggles in gray order.

    Toggling one edge per step keeps the per-subset cost at a single
    forcing closure.  Returns (subsets tested, first failing index).
    """
    full = g.full_mask
    masks = list(g.force_masks)
    for i in range(2 ** len(toggles)):
        if i:
            u, bit = toggles[(i & -i).bit_length() - 1]  # gray(i) ^ gray(i - 1)
            masks[u] ^= bit
        if _closure(masks, order, z_mask, full) != full:
            return i + 1, i
    return 2 ** len(toggles), None


def verify_edge_set(
    g: DiGraph,
    controls: Iterable[int],
    report: EdgeSetReport,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> VerificationOutcome:
    """Check that applying any subset of ``report.edges`` keeps the controls
    a zero forcing set.

    Additive and inter-network subsets are added to ``g``, subtractive
    subsets removed.  Exhaustive when ``2**len(edges) <= budget``;
    otherwise the singletons, the full set, and 10,000 seeded random
    subsets are tested.  Self-loop toggles never affect forcing, so they
    are counted but cost nothing.  Every subset gets its own full closure;
    the report's witness only orders the closure's sweep.
    """
    z = control_set(controls, g.n)
    z_mask = _mask_of(z)
    edges = sorted(report.edges)
    if report.kind in (ADDITIVE, INTER_NETWORK):
        present = [e for e in edges if g.has_edge(*e)]
        if present:
            raise ValueError(f"additive edges {present} are already in the graph")
    elif report.kind == SUBTRACTIVE:
        missing = [e for e in edges if not g.has_edge(*e)]
        if missing:
            raise ValueError(f"subtractive edges {missing} are not in the graph")
    else:  # pragma: no cover - kinds are closed
        raise ValueError(report.kind)
    # XOR-toggling covers both directions: additive subsets turn bits on,
    # subtractive subsets turn them off, starting from the same graph.
    # A self-loop toggles bit 0, which changes no mask.
    toggles = [(u, 0 if u == v else 1 << (v - 1)) for u, v in edges]
    order = _sweep_order(g, report.witness)
    k = len(edges)
    if k == 0 or 2**k <= budget:
        tested, fail_index = _scan(g, order, z_mask, toggles)
        if fail_index is None:
            return VerificationOutcome(True, True, tested)
        return VerificationOutcome(False, True, tested, _subset_from_index(edges, fail_index))

    full = g.full_mask
    rng = np.random.default_rng(seed)
    picks = [[pos == i for pos in range(k)] for i in range(k)]
    picks.append([True] * k)
    # One draw of SAMPLED_SUBSETS rows yields the same stream as one draw per row.
    picks.extend((rng.random((SAMPLED_SUBSETS, k)) < 0.5).tolist())
    for tested, keep in enumerate(picks, start=1):
        masks = list(g.force_masks)
        for (u, bit), kp in zip(toggles, keep):
            if kp:
                masks[u] ^= bit
        if _closure(masks, order, z_mask, full) != full:
            return VerificationOutcome(
                False, False, tested, frozenset(e for e, kp in zip(edges, keep) if kp)
            )
    return VerificationOutcome(True, False, len(picks))

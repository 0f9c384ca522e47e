"""Forcing-time intervals and the family of graphs they admit.

A chain partition plus a valid time function defines a family of graphs:
every member contains all chain edges and no edge (u, v) whose source
stops being its chain's frontier node before v turns black, i.e. with
``tmax(u) < t(v)``.  The unique maximal member (the *perfect graph*)
contains every admissible edge, including all self-loops, and its edge
count depends only on the graph size and the number of chains.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .graphs import Chain, ChainSet, ConsistencyError, DiGraph, Edge, control_set, mask_nodes
from .forcing import (
    LOWEST_FORCER,
    ForcingRecord,
    TieBreakPolicy,
    _drain,
    _require_all_black,
    forcing_schedule,
)


@dataclass(frozen=True)
class TimeFunction:
    """Per-node forcing times bound to a chain partition.

    ``times`` maps every chain node to an integer in ``[1, gamma]`` with
    ``gamma = n - m + 1``.  The latest step at which a node is still the
    frontier of its chain (``tmax``) is always derived, never stored:
    sinks get ``gamma``, every other node gets its successor's time minus
    one.
    """

    chains: ChainSet
    times: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "times", dict(self.times))

    @property
    def n(self) -> int:
        return self.chains.node_count

    @property
    def m(self) -> int:
        return self.chains.m

    @property
    def gamma(self) -> int:
        return self.n - self.m + 1

    @cached_property
    def tmax(self) -> dict[int, int]:
        nxt = self.chains.successor
        out = {}
        for v in self.times:
            out[v] = self.times[nxt[v]] - 1 if v in nxt else self.gamma
        return out

    def interval(self, v: int) -> tuple[int, int]:
        """The ``[t(v), tmax(v)]`` interval during which v is a chain frontier."""
        return (self.times[v], self.tmax[v])

    @classmethod
    def from_record(cls, record: ForcingRecord) -> "TimeFunction":
        return cls(record.chains, record.times)


def validate_time_function(tf: TimeFunction) -> list[str]:
    """All violations of the time-function conditions; empty means valid.

    Checks that the chains are disjoint, the times cover exactly the
    chain nodes, sources sit at time 1, non-source times are pairwise
    distinct within ``[2, gamma]``, and times strictly increase along
    every chain.
    """
    problems: list[str] = []
    cs = tf.chains
    if not cs.is_disjoint:
        problems.append("chains share nodes")
        return problems
    if set(tf.times) != set(cs.nodes):
        problems.append("times must be defined on exactly the chain nodes")
        return problems
    gamma = tf.gamma
    for s in sorted(cs.sources):
        if tf.times[s] != 1:
            problems.append(f"source {s} has time {tf.times[s]}, expected 1")
    seen: dict[int, int] = {}
    for v in sorted(cs.nodes - cs.sources):
        t = tf.times[v]
        if not 2 <= t <= gamma:
            problems.append(f"non-source {v} has time {t} outside [2, {gamma}]")
        elif t in seen:
            problems.append(f"nodes {seen[t]} and {v} share non-source time {t}")
        else:
            seen[t] = v
    for c in cs.chains:
        for u, v in c.edges:
            if tf.times[u] >= tf.times[v]:
                problems.append(
                    f"chain times must increase: t({u})={tf.times[u]} >= t({v})={tf.times[v]}"
                )
    return problems


def _require_valid(tf: TimeFunction) -> None:
    problems = validate_time_function(tf)
    if problems:
        raise ValueError("invalid time function: " + "; ".join(problems))


def _admissible_rows(tf: TimeFunction) -> dict[int, int]:
    """For every node ``u``, the nodes ``v`` with ``tmax(u) >= t(v)`` as a bitmask.

    In time order those targets are a prefix of the nodes, so one pass
    over the time order builds every row.  ``tf`` must be valid: then
    every ``tmax`` value is some node's time.
    """
    t = tf.times
    upto: dict[int, int] = {}  # time T -> the nodes with t(v) <= T
    mask = 0
    for v in sorted(t, key=t.__getitem__):
        mask |= 1 << (v - 1)
        upto[t[v]] = mask
    return {u: upto[T] for u, T in tf.tmax.items()}


def _member_rows(tf: TimeFunction) -> list[int]:
    """Rows of the maximal member: every admissible pair plus the chain edges.

    ``tf`` must be valid.
    """
    if tf.chains.nodes != frozenset(range(1, tf.n + 1)):
        raise ValueError(f"chain nodes must be exactly 1..{tf.n}")
    rows = [0] * (tf.n + 1)
    for u, row in _admissible_rows(tf).items():
        rows[u] = row
    for u, v in tf.chains.successor.items():
        rows[u] |= 1 << (v - 1)
    return rows


def optional_edges(tf: TimeFunction) -> frozenset[Edge]:
    """Every admissible non-chain edge: the pairs with ``tmax(u) >= t(v)``.

    Includes all self-loops (``tmax(u) >= t(u)`` always holds) and is
    disjoint from the chain edges, whose sources satisfy
    ``tmax(u) = t(v) - 1``.
    """
    _require_valid(tf)
    return frozenset(
        (u, v) for u, row in _admissible_rows(tf).items() for v in mask_nodes(row)
    )


def is_ct_constructed(g: DiGraph, tf: TimeFunction) -> bool:
    """True iff ``g`` belongs to the family defined by ``tf``.

    Requires the chains to partition ``g`` with every chain edge present,
    and forbids any non-chain edge (u, v) with ``tmax(u) < t(v)``: every
    row of ``g`` must lie inside the maximal member's row.
    """
    _require_valid(tf)
    if tf.chains.node_count != g.n or tf.chains.nodes != frozenset(g.nodes):
        return False
    if not all(g.has_edge(u, v) for u, v in tf.chains.successor.items()):
        return False
    return not any(row & ~member for row, member in zip(g.rows, _member_rows(tf)))


def perfect_graph(tf: TimeFunction) -> DiGraph:
    """The unique maximal member of the family: chain edges plus every
    admissible pair.  Its edge count equals :func:`perfect_edge_count`."""
    _require_valid(tf)
    g = DiGraph.from_rows(tf.n, _member_rows(tf))
    expect = perfect_edge_count(tf.n, tf.m)
    if g.edge_count != expect:
        raise ConsistencyError(
            f"maximal member has {g.edge_count} edges, closed form says {expect}"
        )
    return g


def perfect_edge_count(n: int, m: int) -> int:
    """Closed-form edge count of the maximal member: n(n+1)/2 + m(2n-m-1)/2."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    total = n * (n + 1) + m * (2 * n - m - 1)
    return total // 2


def is_perfect(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> tuple[ChainSet, TimeFunction] | None:
    """Recognize maximal graphs; returns the (chains, times) witness or None.

    Rejects in O(1) when the edge count differs from the closed form,
    then verifies structurally against one forcing schedule.  Any
    schedule suffices: a maximal graph admits a single time function.

    Raises:
        NotZfsError: ``controls`` is not a zero forcing set of ``g``.
    """
    z = control_set(controls, g.n)
    _require_all_black(g, _drain(g, z), z)
    if g.edge_count != perfect_edge_count(g.n, len(z)):
        return None
    record = forcing_schedule(g, z, policy)
    tf = TimeFunction.from_record(record)
    if perfect_graph(tf) != g:
        return None
    return record.chains, tf


# -- sampling -----------------------------------------------------------


def sample_member(tf: TimeFunction, rng: np.random.Generator) -> DiGraph:
    """Uniform member of the family: chain edges plus an independent
    coin flip per admissible edge, drawn in sorted edge order."""
    _require_valid(tf)
    admissible = _admissible_rows(tf)
    opts = [(u, v) for u in sorted(admissible) for v in mask_nodes(admissible[u])]
    keep = (rng.random(len(opts)) < 0.5).tolist()
    rows = list(DiGraph(tf.n, tf.chains.chain_edges).rows)
    for (u, v), k in zip(opts, keep):
        if k:
            rows[u] |= 1 << (v - 1)
    return DiGraph.from_rows(tf.n, rows)


def random_chain_set(n: int, m: int, rng: np.random.Generator) -> ChainSet:
    """Random partition of ``1..n`` into ``m`` nonempty node-disjoint chains."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    perm = [int(v) + 1 for v in rng.permutation(n)]
    cuts = sorted(rng.choice(n - 1, size=m - 1, replace=False) + 1) if m > 1 else []
    bounds = [0, *cuts, n]
    chains = tuple(Chain(tuple(perm[a:b])) for a, b in zip(bounds, bounds[1:]))
    return ChainSet(chains)


def random_time_function(cs: ChainSet, rng: np.random.Generator) -> TimeFunction:
    """Random valid time function on ``cs``.

    Every valid time function corresponds to one interleaving of the
    chains' non-source nodes, so shuffling that interleaving samples the
    whole space.
    """
    if not cs.is_disjoint:
        raise ValueError("chains share nodes")
    slots: list[int] = []
    for i, c in enumerate(cs.chains):
        slots.extend([i] * (len(c) - 1))
    rng.shuffle(slots)
    times = {c.source: 1 for c in cs.chains}
    progress = [1] * cs.m  # next node index to stamp, per chain
    for step, i in enumerate(slots):
        times[cs.chains[i].nodes[progress[i]]] = step + 2
        progress[i] += 1
    return TimeFunction(cs, times)

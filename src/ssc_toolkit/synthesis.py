"""Forcing-time intervals and the family of graphs they admit.

A chain partition plus a valid time function defines a family of graphs:
every member contains all chain edges and no edge (u, v) whose source
stops being its chain's frontier node before v turns black, i.e. with
``tmax(u) < t(v)``.  The unique maximal member (the *perfect graph*)
contains every admissible edge, including all self-loops, and its edge
count depends only on the graph size and the number of chains.

A family is given by a :class:`~.forcing.TimeFunction`, the type every
forcing schedule returns.  It is checked once, when it is built: one that
exists is valid and its chains cover exactly the nodes ``1..n``, so
nothing downstream checks it again.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphs import ChainSet, ConsistencyError, DiGraph, Edge, control_set, row_nodes
from .forcing import (
    LOWEST_FORCER,
    TieBreakPolicy,
    TimeFunction,
    _drain,
    _require_all_black,
    forcing_schedule,
)


def optional_edges(tf: TimeFunction) -> frozenset[Edge]:
    """Every admissible non-chain edge: the pairs with ``tmax(u) >= t(v)``.

    Includes all self-loops (``tmax(u) >= t(u)`` always holds) and is
    disjoint from the chain edges, whose sources satisfy
    ``tmax(u) = t(v) - 1``.
    """
    return DiGraph.from_rows(tf.n, tf.admissible_rows).edges


def is_ct_constructed(g: DiGraph, tf: TimeFunction) -> bool:
    """True iff ``g`` belongs to the family defined by ``tf``.

    Requires the chains to partition ``g`` with every chain edge present,
    and forbids any non-chain edge (u, v) with ``tmax(u) < t(v)``: every
    row of ``g`` must lie inside the maximal member's row.  The chains
    cover ``1..tf.n``, so they partition ``g`` when the node counts agree.
    """
    if tf.n != g.n:
        return False
    return not any(
        chain & ~row or row & ~member
        for row, chain, member in zip(g.rows, tf.skeleton.rows, tf.member_rows)
    )


def perfect_graph(tf: TimeFunction) -> DiGraph:
    """The unique maximal member of the family: chain edges plus every
    admissible pair.  Its edge count equals :func:`perfect_edge_count`."""
    g = DiGraph.from_rows(tf.n, tf.member_rows)
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
    tf = forcing_schedule(g, z, policy)
    if perfect_graph(tf) != g:
        return None
    return tf.chains, tf


# -- sampling -----------------------------------------------------------


def sample_member(tf: TimeFunction, rng: np.random.Generator) -> DiGraph:
    """Uniform member of the family: chain edges plus an independent
    coin flip per admissible edge, drawn in sorted edge order."""
    opts = [(u, v) for u, nodes in row_nodes(tf.admissible_rows) for v in nodes]
    keep = (rng.random(len(opts)) < 0.5).tolist()
    rows = list(tf.skeleton.rows)
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
    return ChainSet(tuple(perm[a:b] for a, b in zip(bounds, bounds[1:])))


def random_time_function(cs: ChainSet, rng: np.random.Generator) -> TimeFunction:
    """Random valid time function on ``cs``.

    Every valid time function corresponds to one interleaving of the
    chains' non-source nodes, so shuffling that interleaving samples the
    whole space.
    """
    slots: list[int] = []
    for i, c in enumerate(cs.chains):
        slots.extend([i] * (len(c) - 1))
    rng.shuffle(slots)
    times = {c[0]: 1 for c in cs.chains}
    progress = [1] * cs.m  # next node index to stamp, per chain
    for step, i in enumerate(slots):
        times[cs.chains[i][progress[i]]] = step + 2
        progress[i] += 1
    return TimeFunction(cs, times)

"""Directed-graph value types, chain partitions, and topological ordering.

Nodes are dense integers ``1..n``; external names are mapped at the I/O
layer.  All values are immutable: edits return new values, so the
perturbation analyses can fan out over many variants without copying
defensively.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

Edge = tuple[int, int]


class CyclicError(ValueError):
    """The operation requires a DAG but the graph has a directed cycle."""


class ConsistencyError(RuntimeError):
    """An independently computed verdict contradicts the primary computation.

    Raised only when two internal routes (e.g. an enumeration and its
    closed-form count) disagree; this signals a bug, never bad input.
    """


def _as_edge(e) -> Edge:
    u, v = e
    return (int(u), int(v))


@dataclass(frozen=True)
class DiGraph:
    """Immutable directed graph on nodes ``1..n``; self-loops allowed."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"node count must be a positive integer, got {self.n!r}")
        edges = frozenset(_as_edge(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) leaves the node range [1, {self.n}]")

    # -- edits (pure) --------------------------------------------------

    def add_edges(self, extra: Iterable[Edge]) -> "DiGraph":
        """Return the graph with ``extra`` unioned into the edge set."""
        extra = frozenset(_as_edge(e) for e in extra)
        if not extra:
            return self
        return DiGraph(self.n, self.edges | extra)

    def remove_edges(self, gone: Iterable[Edge]) -> "DiGraph":
        """Return the graph without ``gone``; absent edges are ignored."""
        gone = frozenset(_as_edge(e) for e in gone)
        if not gone & self.edges:
            return self
        return DiGraph(self.n, self.edges - gone)

    # -- queries -------------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def force_masks(self) -> tuple[int, ...]:
        """Out-neighbor bitmasks (bit ``v-1`` for node ``v``), self-loops dropped.

        A node is never its own out-neighbor for forcing purposes.
        """
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            if u != v:
                masks[u] |= 1 << (v - 1)
        return tuple(masks)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, edges={sorted(self.edges)!r})"


def control_set(nodes: Iterable[int], n: int) -> frozenset[int]:
    """Validate and normalize a set of control nodes for an ``n``-node graph."""
    out = frozenset(int(v) for v in nodes)
    if not out:
        raise ValueError("control set must be nonempty")
    bad = [v for v in out if not 1 <= v <= n]
    if bad:
        raise ValueError(f"control nodes {sorted(bad)} leave the node range [1, {n}]")
    return out


@dataclass(frozen=True)
class Chain:
    """A directed path written as its node sequence; first node is the
    source, last is the sink.  A one-node chain has no edges and its node
    is both source and sink."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        nodes = tuple(int(v) for v in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ValueError("a chain needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"chain nodes must be distinct, got {nodes}")

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def sink(self) -> int:
        return self.nodes[-1]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ChainSet:
    """A collection of chains, normally a node-disjoint partition.

    Disjointness is *not* enforced at construction so that candidate
    partitions can be inspected; use :func:`is_chain_partition` (or
    :attr:`is_disjoint`) to validate, and rely on the library's producers
    always emitting disjoint chain sets.
    """

    chains: tuple[Chain, ...]

    def __post_init__(self):
        chains = tuple(c if isinstance(c, Chain) else Chain(tuple(c)) for c in self.chains)
        object.__setattr__(self, "chains", chains)
        if not chains:
            raise ValueError("a chain set needs at least one chain")

    @property
    def m(self) -> int:
        return len(self.chains)

    @cached_property
    def node_count(self) -> int:
        return sum(len(c) for c in self.chains)

    @cached_property
    def is_disjoint(self) -> bool:
        return len(self.nodes) == self.node_count

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(v for c in self.chains for v in c.nodes)

    @cached_property
    def sources(self) -> frozenset[int]:
        return frozenset(c.source for c in self.chains)

    @cached_property
    def chain_edges(self) -> frozenset[Edge]:
        return frozenset(e for c in self.chains for e in c.edges)

    @cached_property
    def successor(self) -> dict[int, int]:
        """Chain successor of every non-sink node."""
        nxt: dict[int, int] = {}
        for c in self.chains:
            for u, v in c.edges:
                nxt[u] = v
        return nxt


def is_chain_partition(g: DiGraph, cs: ChainSet) -> bool:
    """True iff the chains are node-disjoint, cover ``1..n`` exactly, and
    every chain edge is an edge of ``g``."""
    if not cs.is_disjoint:
        return False
    if cs.node_count != g.n or cs.nodes != frozenset(g.nodes):
        return False
    return cs.chain_edges <= g.edges


def topological_order(g: DiGraph) -> tuple[int, ...]:
    """Order the nodes so that every edge's target precedes its source.

    Indexing nodes by their position in the result puts every edge in the
    higher-index -> lower-index form the DAG combination step expects.
    Deterministic: among ready nodes, the lowest id is placed first.

    Raises:
        CyclicError: the graph has a directed cycle (a self-loop counts).
    """
    pending_out = [0] * (g.n + 1)
    in_adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        pending_out[u] += 1
        in_adj[v].append(u)
    ready = [v for v in g.nodes if pending_out[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in in_adj[v]:
            pending_out[u] -= 1
            if pending_out[u] == 0:
                heapq.heappush(ready, u)
    if len(order) < g.n:
        stuck = sorted(set(g.nodes) - set(order))
        raise CyclicError(f"graph has a directed cycle through nodes {stuck}")
    return tuple(order)

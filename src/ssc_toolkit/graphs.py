"""Directed-graph value types, chain partitions, and topological ordering.

Nodes are dense integers ``1..n``; external names are mapped at the I/O
layer.  A graph is stored as one out-neighbor bitmask per node (its
*rows*), which is also the form the forcing rule and the time-ordered
prefix sets of the synthesis layer work on.  A whole graph's nodes, row
by row, are listed in one walk by :func:`row_nodes`, which unpacks a
dense graph a bounded chunk at a time; :func:`mask_nodes` lists a single
mask and :func:`node_mask` builds one.  All values are immutable: edits
return new values, so the perturbation analyses can fan out over many
variants without copying defensively.  A :class:`ChainSet` is
node-disjoint by construction.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int]


class CyclicError(ValueError):
    """The operation requires a DAG but the graph has a directed cycle.

    ``cycle`` holds the nodes of one directed cycle, each followed by its
    successor on it; ``block`` is the cyclic graph's position when it is one
    of several, else None.
    """

    def __init__(self, cycle: Sequence[int], block: int | None = None):
        self.cycle = tuple(cycle)
        self.block = block
        super().__init__(f"graph has a directed cycle through nodes {list(self.cycle)}")


class ConsistencyError(RuntimeError):
    """An independently computed verdict contradicts the primary computation.

    Raised only when two internal routes (e.g. an enumeration and its
    closed-form count) disagree; this signals a bug, never bad input.
    """


# Above this many set bits, mask_nodes unpacks the mask with numpy: for
# 1000 bits of 2000 that takes 32 us instead of 290 us, for 64 of 200 5 us
# instead of 17 us; for 16 bits it would take 5-10 us instead of 3-7 us.
_DENSE_BITS = 32


def mask_nodes(mask: int) -> list[int]:
    """The nodes whose bits are set in ``mask`` (bit ``v-1`` for node ``v``), ascending."""
    if mask.bit_count() > _DENSE_BITS:
        packed = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
        return (np.flatnonzero(np.unpackbits(packed, bitorder="little")) + 1).tolist()
    bits = bin(mask)[:1:-1]  # least significant bit first
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i + 1)
        i = bits.find("1", i + 1)
    return out


def node_mask(nodes: Iterable[int]) -> int:
    """The mask with bit ``v-1`` set for each node ``v`` of ``nodes``: the
    inverse of :func:`mask_nodes`."""
    mask = 0
    for v in nodes:
        mask |= 1 << (v - 1)
    return mask


def _unpack(rows: Sequence[int], n: int) -> np.ndarray:
    """Rows as an ``len(rows) x n`` 0/1 matrix; column ``v-1`` holds bit ``v-1``."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, bitorder="little")[:, :n]


# Rows are unpacked this many at a time (a multiple of 8), so the one byte
# per bit matrix covers at most this many rows: about 10 MB at n = 10^4
# instead of 100 MB.
_CHUNK = 1024


def _moves_bits(ones: int, n: int) -> bool:
    """True when the ``ones`` set bits of an ``n``-row bit matrix move one at
    a time rather than through the unpacked matrix: up to three per row.
    The measured crossover of :func:`_transpose` (random rows) is 2.5-3 set
    bits per row up to n = 400 and grows to about 10 at n = 2000, so sparse
    graphs of every size move their bits and dense ones unpack."""
    return ones <= 3 * n


def _transpose(rows: Sequence[int], n: int, ones: int) -> list[int]:
    """Column masks of the ``n x n`` bit matrix whose rows are ``rows`` and
    which has ``ones`` set bits.  A sparse matrix moves its bits one at a
    time: for a 10^4-node chain that takes 20 ms, unpacking it 0.24 s."""
    if _moves_bits(ones, n):
        out = [0] * n
        for u, row in enumerate(rows):
            bit = 1 << u
            while row:
                low = row & -row
                row ^= low
                out[low.bit_length() - 1] |= bit
        return out
    columns = np.zeros((n, (n + 7) // 8), np.uint8)
    for i in range(0, n, _CHUNK):
        bits = np.ascontiguousarray(_unpack(rows[i : i + _CHUNK], n).T)
        columns[:, i // 8 : (i + bits.shape[1] + 7) // 8] = np.packbits(
            bits, axis=1, bitorder="little"
        )
    return [int.from_bytes(c.tobytes(), "little") for c in columns]


def _select_bits(rows: Sequence[int], n: int, at: Sequence[int]) -> list[int]:
    """Each row rebuilt so that its bit ``j`` is its old bit ``at[j]``.  A
    sparse matrix moves its bits one at a time, as in :func:`_transpose`."""
    if _moves_bits(sum(row.bit_count() for row in rows), n):
        to = [0] * n
        for j, old in enumerate(at):
            to[old] = 1 << j
        out = []
        for row in rows:
            new = 0
            while row:
                low = row & -row
                row ^= low
                new |= to[low.bit_length() - 1]
            out.append(new)
        return out
    at = np.asarray(at)
    out = []
    for i in range(0, len(rows), _CHUNK):
        packed = np.packbits(_unpack(rows[i : i + _CHUNK], n)[:, at], axis=1, bitorder="little")
        out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return out


# A dense bulk walk unpacks this many bits per chunk (but at least 8 rows),
# so it lists at most that many nodes at once: 32 rows at n = 2000.  Listing
# the 2 million edges of a 2000-node skeleton's additive set in 1024-row
# chunks took 67 MiB peak RSS instead of 36 MiB.
_CHUNK_BITS = 2**16


def row_nodes(
    rows: Sequence[int], table: Sequence | None = None, order: Sequence[int] | None = None
) -> Iterator[tuple[int, list]]:
    """``(u, nodes)`` for every nonempty row of the graph whose rows are
    ``rows`` (``rows[0]`` is 0), in row order: the nodes of ``rows[u]``
    ascending, each given as ``table[v]`` (as ``v`` without a table).

    With ``order``, the rows are read as those of :meth:`DiGraph.relabeled`
    with ``order``, without building them.  A sparse matrix lists each row
    with :func:`mask_nodes`; a dense one is unpacked a bounded chunk at a
    time and listed with one ``nonzero`` per chunk.
    """
    n = len(rows) - 1
    if order is not None:
        rows = (0, *(rows[v] for v in order))
    counts = [row.bit_count() for row in rows]
    if _moves_bits(sum(counts), n):
        if order is not None:
            rows = (0, *_select_bits(rows[1:], n, [v - 1 for v in order]))
        for u, row in enumerate(rows):
            if row:
                nodes = mask_nodes(row)
                yield u, nodes if table is None else [table[v] for v in nodes]
        return
    names = (np.arange(n + 1) if table is None else np.array(table, dtype=object))[1:]
    at = None if order is None else np.asarray(order) - 1
    step = max(8, _CHUNK_BITS // n)
    for i in range(0, n + 1, step):
        bits = _unpack(rows[i : i + step], n)
        if at is not None:
            bits = bits[:, at]
        flat = names[bits.nonzero()[1]].tolist()  # row by row, each row ascending
        end = 0
        for u in range(i, i + len(bits)):
            if counts[u]:
                start, end = end, end + counts[u]
                yield u, flat[start:end]


def _require_node_count(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")


@dataclass(frozen=True, init=False, repr=False)
class DiGraph:
    """Immutable directed graph on nodes ``1..n``; self-loops allowed.

    The only state is ``rows``: ``rows[u]`` is an int whose bit ``v-1``
    marks the edge ``(u, v)`` (``rows[0]`` is 0).  Equality, hashing, edge
    counts and forcing masks come from the rows; the edge set is derived
    on first use, for I/O and set algebra.
    """

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        object.__setattr__(self, "n", n)
        self.__post_init__(edges)

    def __post_init__(self, edges: Iterable[Edge]) -> None:
        """Validate the node count and every edge, then fill the rows."""
        n = self.n
        _require_node_count(n)
        rows = [0] * (n + 1)
        for u, v in edges:
            u, v = int(u), int(v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) leaves the node range [1, {n}]")
            rows[u] |= 1 << (v - 1)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "DiGraph":
        """The graph whose ``rows[u]`` holds u's out-neighbors (``rows[0]`` is 0)."""
        _require_node_count(n)
        rows = tuple(rows)
        if len(rows) != n + 1 or rows[0] or any(r < 0 or r >> n for r in rows):
            raise ValueError(f"rows must be n + 1 = {n + 1} masks of n bits with rows[0] = 0")
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    # -- edits (pure) --------------------------------------------------

    def add_edges(self, extra: Iterable[Edge]) -> "DiGraph":
        """Return the graph with ``extra`` unioned into the edge set."""
        extra = DiGraph(self.n, extra).rows
        rows = tuple(row | more for row, more in zip(self.rows, extra))
        return self if rows == self.rows else DiGraph.from_rows(self.n, rows)

    # -- queries -------------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``(u, v)`` is an edge; endpoints outside ``1..n`` give False."""
        u, v = int(u), int(v)
        return 1 <= u <= self.n and 1 <= v <= self.n and bool(self.rows[u] >> (v - 1) & 1)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, nodes in row_nodes(self.rows) for v in nodes)

    @cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @cached_property
    def force_masks(self) -> tuple[int, ...]:
        """Out-neighbor bitmasks (bit ``v-1`` for node ``v``), self-loops dropped.

        A node is never its own out-neighbor for forcing purposes.
        """
        return (0, *(row & ~(1 << u) for u, row in enumerate(self.rows[1:])))

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """In-neighbor bitmasks, self-loops dropped: the transpose of :attr:`force_masks`."""
        return (0, *_transpose(self.force_masks[1:], self.n, self.edge_count))

    def relabeled(self, order: Sequence[int]) -> "DiGraph":
        """The same graph with node ``order[i]`` renamed ``i + 1``."""
        if sorted(order) != list(self.nodes):
            raise ValueError(f"order must list the nodes 1..{self.n} once each")
        rows = [self.rows[v] for v in order]
        return DiGraph.from_rows(self.n, (0, *_select_bits(rows, self.n, [v - 1 for v in order])))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, edges={sorted(self.edges)!r})"


def control_set(nodes: Iterable[int], n: int) -> frozenset[int]:
    """The control nodes of an ``n``-node graph as a checked frozenset of ints."""
    out = frozenset(int(v) for v in nodes)
    if not out:
        raise ValueError("control set must be nonempty")
    bad = [v for v in out if not 1 <= v <= n]
    if bad:
        raise ValueError(f"control nodes {sorted(bad)} leave the node range [1, {n}]")
    return out


def reachable_mask(g: DiGraph, nodes: Iterable[int]) -> int:
    """The nodes that ``nodes`` reach along edges, ``nodes`` included, as a
    bitmask (bit ``v-1`` for node ``v``): one closure over ``g.rows``."""
    rows = g.rows
    seen = frontier = node_mask(nodes)
    while frontier:
        out = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            out |= rows[low.bit_length()]
        frontier = out & ~seen
        seen |= frontier
    return seen


@dataclass(frozen=True)
class ChainSet:
    """A node-disjoint collection of chains.

    A chain is a directed path written as its node tuple, source first;
    a one-node chain has no edges.  Chains are checked once, at
    construction: a :class:`ChainSet` that exists has no empty chain and
    no node twice, in one chain or in two, so nothing downstream checks
    it again.
    """

    chains: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        chains = tuple(tuple(map(int, c)) for c in self.chains)
        object.__setattr__(self, "chains", chains)
        if not chains:
            raise ValueError("a chain set needs at least one chain")
        if not all(chains):
            raise ValueError("a chain needs at least one node")
        if len(self.nodes) != self.node_count:
            raise ValueError("chains share nodes")

    @property
    def m(self) -> int:
        return len(self.chains)

    @cached_property
    def node_count(self) -> int:
        return sum(map(len, self.chains))

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(v for c in self.chains for v in c)

    @cached_property
    def sources(self) -> frozenset[int]:
        return frozenset(c[0] for c in self.chains)

    @cached_property
    def chain_edges(self) -> frozenset[Edge]:
        return frozenset(self.successor.items())

    @cached_property
    def successor(self) -> dict[int, int]:
        """Chain successor of every non-sink node."""
        return {u: v for c in self.chains for u, v in zip(c, c[1:])}


def topological_order(g: DiGraph) -> tuple[int, ...]:
    """Order the nodes so that every edge's target precedes its source.

    Indexing nodes by their position in the result puts every edge in the
    higher-index -> lower-index form the DAG combination step expects.
    Deterministic: among ready nodes, the lowest id is placed first.

    Raises:
        CyclicError: the graph has a directed cycle (a self-loop counts).
    """
    ins: list[Sequence[int]] = [()] * (g.n + 1)
    for v, nodes in row_nodes(g.in_masks):
        ins[v] = nodes
    pending_out = [row.bit_count() for row in g.rows]  # a self-loop never clears
    ready = [v for v in g.nodes if pending_out[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in ins[v]:
            pending_out[u] -= 1
            if pending_out[u] == 0:
                heapq.heappush(ready, u)
    if len(order) < g.n:
        # every node left has an edge to another one left: follow the lowest
        # such edge from the lowest node left until a node repeats
        left = node_mask(v for v in g.nodes if pending_out[v])
        path: dict[int, int] = {}  # node -> its position on the walk
        v = (left & -left).bit_length()
        while v not in path:
            path[v] = len(path)
            out = g.rows[v] & left
            v = (out & -out).bit_length()
        raise CyclicError(list(path)[path[v] :])
    return tuple(order)

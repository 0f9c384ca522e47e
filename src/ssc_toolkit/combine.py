"""Combining controlled networks into controlled networks-of-networks.

Blocks that each come with a chain partition and time function are laid
out along a repetition sequence; the per-block times are remapped onto a
global clock so that the merged chains and times again form a valid pair.
Cross-block edges are then admissible exactly when ``tmax(u) >= t(v)``
under the merged times, and the largest admissible set has a closed-form
cardinality.  Directed acyclic blocks get a dedicated construction that
needs only a single control node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .forcing import TimeFunction
from .graphs import (
    ChainSet,
    ConsistencyError,
    CyclicError,
    DiGraph,
    Edge,
    node_mask,
    topological_order,
)
from .robustness import INTER_NETWORK, EdgeSetReport
from .synthesis import is_ct_constructed, perfect_edge_count

Block = tuple[DiGraph, TimeFunction]


class InfeasibleSequenceError(ValueError):
    """No sequence satisfies the requested repetition constraints."""


class RejectedEdgeError(ValueError):
    """An inter-block edge violates the admissibility condition."""

    def __init__(self, u: int, v: int, tmax_u: int, t_v: int):
        super().__init__(f"edge ({u}, {v}) rejected: T_max({u})={tmax_u} < T({v})={t_v}")
        self.edge = (u, v)
        self.tmax_u = tmax_u
        self.t_v = t_v


def remap_time(seq: tuple[int, ...], which: int, tf_local: TimeFunction) -> dict[int, int]:
    """Remap one block's times onto the global clock of the layout ``seq``.

    The node forced at local step ``j + 1`` is re-stamped with ``k + 1``
    where ``k`` is the global position of the block's j-th occurrence;
    sources keep time 1.  Requires the block to occur exactly
    ``n - m`` times in the sequence.
    """
    expected = tf_local.n - tf_local.m
    if seq.count(which) != expected:
        raise ValueError(
            f"block {which} occurs {seq.count(which)} times in the sequence, needs {expected}"
        )
    by_time = {t: v for v, t in tf_local.times.items() if t > 1}
    times = {v: 1 for v, t in tf_local.times.items() if t == 1}
    j = 0
    for k, entry in enumerate(seq, start=1):
        if entry == which:
            j += 1
            times[by_time[j + 1]] = k + 1
    return times


@dataclass(frozen=True)
class CombinedNetwork:
    """A network-of-networks with its merged chains, times, and layout.

    Block-local node ids are offset by the cumulative sizes of the
    preceding blocks; ``offsets[i]`` is the shift applied to block ``i``.
    """

    graph: DiGraph
    times: TimeFunction
    offsets: tuple[int, ...]
    block_sizes: tuple[int, ...]

    def block_of(self, node: int) -> int:
        for i, off in enumerate(self.offsets):
            if off < node <= off + self.block_sizes[i]:
                return i
        raise ValueError(f"node {node} is outside every block")

    @property
    def sources(self) -> frozenset[int]:
        return self.times.chains.sources


def combine_networks(
    blocks: Sequence[Block], seq: tuple[int, ...], inter: Iterable[Edge]
) -> CombinedNetwork:
    """Merge the blocks along the layout ``seq`` and install the ``inter`` edges.

    ``seq`` lists 0-based block indices and must repeat block ``i`` exactly
    ``n_i - m_i`` times.  Every inter edge must join two different blocks
    (global node ids) and satisfy ``tmax(u) >= t(v)`` under the merged
    times; the first offending edge is rejected rather than silently
    dropped, naming the intervals that clash.  The result's sources form a
    zero forcing set of the merged graph, and stay one for every re-draw of
    the blocks from their families.

    Raises:
        RejectedEdgeError: an inter edge is inadmissible.
        ValueError: sequence/block mismatch, or an edge is internal.
    """
    counts = [g.n - tf.m for g, tf in blocks]
    reps = [seq.count(i) for i in range(len(blocks))]
    if reps != counts or len(seq) != sum(counts):  # the length catches out-of-range entries
        raise ValueError(
            f"sequence repetitions {reps} do not match the required counts {counts}"
        )
    for i, (g, tf) in enumerate(blocks):
        if not is_ct_constructed(g, tf):
            raise ValueError(f"block {i} does not belong to its declared family")
    sizes = tuple(g.n for g, _ in blocks)
    offsets = tuple(sum(sizes[:i]) for i in range(len(blocks)))
    chains: list[tuple[int, ...]] = []
    times: dict[int, int] = {}
    rows = [0]
    for i, (g, tf) in enumerate(blocks):
        off = offsets[i]
        times.update({v + off: t for v, t in remap_time(seq, i, tf).items()})
        chains.extend(tuple(v + off for v in c) for c in tf.chains.chains)
        rows.extend(row << off for row in g.rows[1:])
    tf = TimeFunction(ChainSet(tuple(chains)), times)
    merged = CombinedNetwork(DiGraph.from_rows(sum(sizes), rows), tf, offsets, sizes)
    inter = frozenset((int(u), int(v)) for u, v in inter)
    for u, v in sorted(inter):
        bu, bv = merged.block_of(u), merged.block_of(v)
        if bu == bv:
            raise ValueError(f"edge ({u}, {v}) stays inside block {bu}; it is not inter-block")
        if tf.tmax[u] < tf.times[v]:
            raise RejectedEdgeError(u, v, tf.tmax[u], tf.times[v])
    graph = merged.graph.add_edges(inter)
    if not is_ct_constructed(graph, tf):
        raise ConsistencyError("combined network fell outside the merged family")
    return CombinedNetwork(graph, tf, offsets, sizes)


def max_inter_edges(merged: CombinedNetwork) -> EdgeSetReport:
    """The largest installable inter-block edge set of a merged layout and
    its closed form.

    Every row is the merged admissible row of a node (all v with
    ``tmax(u) >= t(v)`` under the merged times) minus its own block's
    bits; the count is checked against the closed form: the merged
    maximal-member count minus each block's, taken from the block's size
    and the merged sources inside it.  Edges already installed in
    ``merged`` do not change the result.
    """
    tf = merged.times
    admissible = tf.admissible_rows
    sources = node_mask(tf.chains.sources)
    rows = [0] * (merged.graph.n + 1)
    bound = perfect_edge_count(merged.graph.n, tf.m)
    for off, size in zip(merged.offsets, merged.block_sizes):
        block = ((1 << size) - 1) << off
        bound -= perfect_edge_count(size, (sources & block).bit_count())
        for u in range(off + 1, off + size + 1):
            rows[u] = admissible[u] & ~block
    inter = DiGraph.from_rows(merged.graph.n, rows)
    if inter.edge_count != bound:
        raise ConsistencyError(
            f"enumerated {inter.edge_count} admissible inter edges, closed form says {bound}"
        )
    return EdgeSetReport(INTER_NETWORK, inter, bound, witness=tf)


def enumerate_sequences(
    counts: Sequence[int], mode: str = "general", limit: int | None = None
) -> list[tuple[int, ...]]:
    """Lexicographic enumeration of valid layouts, as tuples of 0-based
    block indices.

    ``counts[i]`` is how often block ``i`` must appear (``n_i - m_i`` for
    the general construction, ``n_i`` for the DAG one).  Mode ``"dag"``
    additionally forbids equal adjacent entries and fails fast, by the
    pigeonhole bound, when no arrangement can exist.  It then places an
    entry only where the rest can still be arranged, so the walk enters no
    dead end.
    """
    if mode not in ("general", "dag"):
        raise ValueError(f"unknown mode {mode!r}")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("repetition counts must be nonnegative")
    total = sum(counts)
    dag = mode == "dag"
    if dag:
        if any(c < 1 for c in counts):
            raise ValueError("every block must appear at least once in dag mode")
        top = max(counts, default=0)  # the empty layout has no neighbours
        if top > total - top + 1:
            raise InfeasibleSequenceError(
                f"{top} copies of one block cannot avoid being adjacent "
                f"among {total} entries"
            )
    out: list[tuple[int, ...]] = []
    remaining = list(counts)
    prefix: list[int] = []

    def walk() -> bool:
        if len(prefix) == total:
            out.append(tuple(prefix))
            return limit is not None and len(out) >= limit
        rest = total - len(prefix) - 1  # entries after the one placed now
        for i in range(len(counts)):
            if remaining[i] == 0 or dag and prefix and prefix[-1] == i:
                continue
            remaining[i] -= 1
            prefix.append(i)
            # Go on only if the rest can avoid equal neighbours: by the
            # pigeonhole test, no block fills more than every other entry
            # of it.  That the rest must not start with i needs no test of
            # its own: the test at the entry before, or the root's, left i
            # at most every other entry from this one on.
            done = (not dag or 2 * max(remaining) <= rest + 1) and walk()
            prefix.pop()
            remaining[i] += 1
            if done:
                return True
        return False

    walk()
    return out


@dataclass(frozen=True)
class DagCombination:
    """A network-of-DAGs driven from one node.

    ``spine`` lists the nodes in layout order; consecutive spine nodes
    are connected, the first one is the control, and the spine is a
    Hamiltonian chain of the combined graph.  ``orders[i]`` is block
    ``i``'s topological order: combined node ``offset_i + k`` is block
    ``i``'s node ``orders[i][k - 1]``.
    """

    graph: DiGraph
    spine: tuple[int, ...]
    orders: tuple[tuple[int, ...], ...]

    @property
    def control(self) -> int:
        return self.spine[0]

    @property
    def times(self) -> dict[int, int]:
        return {v: k for k, v in enumerate(self.spine, start=1)}


def combine_dags(dags: Sequence[DiGraph], seq: tuple[int, ...]) -> DagCombination:
    """Combine acyclic blocks along the layout ``seq`` into a single-control
    network.

    Each block is re-indexed by its topological ordering (edges then run
    from higher to lower index), the j-th occurrence of a block stands
    for its j-th node, and consecutive occurrences get a connecting edge.
    The node placed first is the single control, and it forces the whole
    combined graph.

    Raises:
        CyclicError: a block is not acyclic; the error names the block.
        InfeasibleSequenceError: the sequence repeats a block the wrong
            number of times or puts equal blocks side by side.
    """
    orders = []
    for i, g in enumerate(dags):
        try:
            orders.append(topological_order(g))
        except CyclicError as exc:
            raise CyclicError(exc.cycle, block=i) from None
    counts = [g.n for g in dags]
    reps = [seq.count(i) for i in range(len(dags))]
    if reps != counts or len(seq) != sum(counts):  # the length catches out-of-range entries
        raise InfeasibleSequenceError(
            f"sequence repetitions {reps} do not match the block sizes {counts}"
        )
    if any(a == b for a, b in zip(seq, seq[1:])):
        raise InfeasibleSequenceError("equal blocks may not be adjacent in the sequence")
    offsets = tuple(sum(counts[:i]) for i in range(len(dags)))
    rows = [0]
    for g, order, off in zip(dags, orders, offsets):
        rows.extend(row << off for row in g.relabeled(order).rows[1:])
    occurrence = [0] * len(dags)
    spine: list[int] = []
    for entry in seq:
        occurrence[entry] += 1
        spine.append(offsets[entry] + occurrence[entry])
    for u, v in zip(spine, spine[1:]):
        rows[u] |= 1 << (v - 1)
    return DagCombination(DiGraph.from_rows(sum(counts), rows), tuple(spine), tuple(orders))

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
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import (
    Chain,
    ChainSet,
    ConsistencyError,
    CyclicError,
    DiGraph,
    Edge,
    topological_order,
)
from .robustness import INTER_NETWORK, EdgeSetReport
from .synthesis import (
    TimeFunction,
    _admissible_rows,
    is_ct_constructed,
    perfect_edge_count,
    validate_time_function,
)

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


@dataclass(frozen=True)
class CombineSequence:
    """An ordered layout of block indices (0-based).

    The general construction repeats block ``i`` exactly ``n_i - m_i``
    times; the DAG construction repeats it ``n_i`` times with no two
    equal indices adjacent.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(i) for i in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def count(self, block: int) -> int:
        return self.entries.count(block)

    def matches_counts(self, counts: Sequence[int]) -> bool:
        if any(i < 0 or i >= len(counts) for i in self.entries):
            return False
        return all(self.count(i) == c for i, c in enumerate(counts))

    @property
    def has_adjacent_repeat(self) -> bool:
        return any(a == b for a, b in zip(self.entries, self.entries[1:]))


def remap_time(seq: CombineSequence, which: int, tf_local: TimeFunction) -> dict[int, int]:
    """Remap one block's times onto the global clock of ``seq``.

    The node forced at local step ``j + 1`` is re-stamped with ``k + 1``
    where ``k`` is the global position of the block's j-th occurrence;
    sources keep time 1.  Requires the block to occur exactly
    ``n - m`` times in the sequence.
    """
    problems = validate_time_function(tf_local)
    if problems:
        raise ValueError("invalid block time function: " + "; ".join(problems))
    expected = tf_local.n - tf_local.m
    if seq.count(which) != expected:
        raise ValueError(
            f"block {which} occurs {seq.count(which)} times in the sequence, needs {expected}"
        )
    by_time = {t: v for v, t in tf_local.times.items() if t > 1}
    times = {v: 1 for v, t in tf_local.times.items() if t == 1}
    j = 0
    for k, entry in enumerate(seq.entries, start=1):
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
    inter_edges: frozenset[Edge]
    offsets: tuple[int, ...]
    block_sizes: tuple[int, ...]

    def global_id(self, block: int, local: int) -> int:
        if not 1 <= local <= self.block_sizes[block]:
            raise ValueError(f"block {block} has no node {local}")
        return self.offsets[block] + local

    def block_of(self, node: int) -> int:
        for i, off in enumerate(self.offsets):
            if off < node <= off + self.block_sizes[i]:
                return i
        raise ValueError(f"node {node} is outside every block")

    @property
    def sources(self) -> frozenset[int]:
        return self.times.chains.sources

    @cached_property
    def chains(self) -> ChainSet:
        return self.times.chains


def _merge_blocks(blocks: Sequence[Block], seq: CombineSequence) -> CombinedNetwork:
    counts = [g.n - tf.m for g, tf in blocks]
    if not seq.matches_counts(counts):
        raise ValueError(
            f"sequence repetitions {[seq.count(i) for i in range(len(blocks))]} "
            f"do not match the required counts {counts}"
        )
    for i, (g, tf) in enumerate(blocks):
        if not is_ct_constructed(g, tf):
            raise ValueError(f"block {i} does not belong to its declared family")
    sizes = tuple(g.n for g, _ in blocks)
    offsets = tuple(sum(sizes[:i]) for i in range(len(blocks)))
    chains: list[Chain] = []
    times: dict[int, int] = {}
    rows = [0]
    for i, (g, tf) in enumerate(blocks):
        off = offsets[i]
        remapped = remap_time(seq, i, tf)
        times.update({v + off: t for v, t in remapped.items()})
        chains.extend(Chain(tuple(v + off for v in c.nodes)) for c in tf.chains.chains)
        rows.extend(row << off for row in g.rows[1:])
    merged_tf = TimeFunction(ChainSet(tuple(chains)), times)
    graph = DiGraph.from_rows(sum(sizes), rows)
    return CombinedNetwork(graph, merged_tf, frozenset(), offsets, sizes)


def combine_networks(
    blocks: Sequence[Block], seq: CombineSequence, inter: Iterable[Edge]
) -> CombinedNetwork:
    """Merge the blocks along ``seq`` and install the ``inter`` edges.

    Every inter edge must join two different blocks (global node ids) and
    satisfy ``tmax(u) >= t(v)`` under the merged times; the first
    offending edge is rejected rather than silently dropped, naming the
    intervals that clash.  The result's sources form a zero forcing set
    of the merged graph, and stay one for every re-draw of the blocks
    from their families.

    Raises:
        RejectedEdgeError: an inter edge is inadmissible.
        ValueError: sequence/block mismatch, or an edge is internal.
    """
    merged = _merge_blocks(blocks, seq)
    inter = frozenset((int(u), int(v)) for u, v in inter)
    tf = merged.times
    for u, v in sorted(inter):
        bu, bv = merged.block_of(u), merged.block_of(v)
        if bu == bv:
            raise ValueError(f"edge ({u}, {v}) stays inside block {bu}; it is not inter-block")
        if tf.tmax[u] < tf.times[v]:
            raise RejectedEdgeError(u, v, tf.tmax[u], tf.times[v])
    graph = merged.graph.add_edges(inter)
    combined = CombinedNetwork(graph, tf, inter, merged.offsets, merged.block_sizes)
    if not is_ct_constructed(graph, tf):
        raise ConsistencyError("combined network fell outside the merged family")
    return combined


def max_inter_edges(blocks: Sequence[Block], seq: CombineSequence) -> EdgeSetReport:
    """The largest installable inter-block edge set and its closed form.

    Every row is the merged admissible row of a node (all v with
    ``tmax(u) >= t(v)`` under the merged times) minus its own block's
    bits; the count is checked against the closed form: the merged
    maximal-member count minus the per-block ones.
    """
    merged = _merge_blocks(blocks, seq)
    tf = merged.times
    admissible = _admissible_rows(tf)
    rows = [0] * (merged.graph.n + 1)
    for off, size in zip(merged.offsets, merged.block_sizes):
        outside = ~(((1 << size) - 1) << off)
        for u in range(off + 1, off + size + 1):
            rows[u] = admissible[u] & outside
    bound = perfect_edge_count(merged.graph.n, tf.m) - sum(
        perfect_edge_count(g.n, btf.m) for g, btf in blocks
    )
    count = sum(row.bit_count() for row in rows)
    if count != bound:
        raise ConsistencyError(
            f"enumerated {count} admissible inter edges, closed form says {bound}"
        )
    return EdgeSetReport.from_rows(INTER_NETWORK, rows, bound, witness=tf)


def enumerate_sequences(
    counts: Sequence[int], mode: str = "general", limit: int | None = None
) -> list[CombineSequence]:
    """Lexicographic enumeration of valid sequences.

    ``counts[i]`` is how often block ``i`` must appear (``n_i - m_i`` for
    the general construction, ``n_i`` for the DAG one).  Mode ``"dag"``
    additionally forbids equal adjacent entries and fails fast, by the
    pigeonhole bound, when no arrangement can exist.
    """
    if mode not in ("general", "dag"):
        raise ValueError(f"unknown mode {mode!r}")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("repetition counts must be nonnegative")
    total = sum(counts)
    if mode == "dag":
        if any(c < 1 for c in counts):
            raise ValueError("every block must appear at least once in dag mode")
        if max(counts) > total - max(counts) + 1:
            raise InfeasibleSequenceError(
                f"{max(counts)} copies of one block cannot avoid being adjacent "
                f"among {total} entries"
            )
    out: list[CombineSequence] = []
    remaining = list(counts)
    prefix: list[int] = []

    def walk() -> bool:
        if len(prefix) == total:
            out.append(CombineSequence(tuple(prefix)))
            return limit is not None and len(out) >= limit
        for i in range(len(counts)):
            if remaining[i] == 0:
                continue
            if mode == "dag" and prefix and prefix[-1] == i:
                continue
            remaining[i] -= 1
            prefix.append(i)
            done = walk()
            prefix.pop()
            remaining[i] += 1
            if done:
                return True
        return False

    walk()
    if mode == "dag" and not out:
        raise InfeasibleSequenceError("no sequence satisfies the adjacency constraint")
    return out


@dataclass(frozen=True)
class DagCombination:
    """A network-of-DAGs driven from one node.

    ``spine`` lists the nodes in layout order; consecutive spine nodes
    are connected, the first one is the control, and the spine is a
    Hamiltonian chain of the combined graph.
    """

    graph: DiGraph
    control: int
    spine: tuple[int, ...]
    times: dict[int, int]
    offsets: tuple[int, ...]
    node_maps: tuple[dict[int, int], ...]

    def time_function(self) -> TimeFunction:
        return TimeFunction(ChainSet((Chain(self.spine),)), self.times)


def combine_dags(dags: Sequence[DiGraph], seq: CombineSequence) -> DagCombination:
    """Combine acyclic blocks along ``seq`` into a single-control network.

    Each block is re-indexed by its topological ordering (edges then run
    from higher to lower index), the j-th occurrence of a block stands
    for its j-th node, and consecutive occurrences get a connecting edge.
    The node placed first is the single control, and it forces the whole
    combined graph.

    Raises:
        CyclicError: a block is not acyclic.
        InfeasibleSequenceError: the sequence repeats a block the wrong
            number of times or puts equal blocks side by side.
    """
    orders = [topological_order(g) for g in dags]  # CyclicError propagates
    counts = [g.n for g in dags]
    if not seq.matches_counts(counts):
        raise InfeasibleSequenceError(
            f"sequence repetitions {[seq.count(i) for i in range(len(dags))]} "
            f"do not match the block sizes {counts}"
        )
    if seq.has_adjacent_repeat:
        raise InfeasibleSequenceError("equal blocks may not be adjacent in the sequence")
    sizes = tuple(g.n for g in dags)
    offsets = tuple(sum(sizes[:i]) for i in range(len(dags)))
    # node_maps[i]: original node id -> topological index (1-based)
    node_maps = tuple(
        {orig: idx + 1 for idx, orig in enumerate(order)} for order in orders
    )
    rows = [0]
    for g, order, off in zip(dags, orders, offsets):
        rows.extend(row << off for row in g.relabeled(order).rows[1:])
    occurrence = [0] * len(dags)
    spine: list[int] = []
    for entry in seq.entries:
        occurrence[entry] += 1
        spine.append(offsets[entry] + occurrence[entry])
    for u, v in zip(spine, spine[1:]):
        rows[u] |= 1 << (v - 1)
    graph = DiGraph.from_rows(sum(sizes), rows)
    times = {v: k for k, v in enumerate(spine, start=1)}
    return DagCombination(graph, spine[0], tuple(spine), times, offsets, node_maps)

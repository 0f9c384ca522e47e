from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssc_toolkit import graphs
from ssc_toolkit.graphs import (
    ChainSet,
    CyclicError,
    DiGraph,
    control_set,
    mask_nodes,
    node_mask,
    reachable_mask,
    row_nodes,
    topological_order,
)
from ssc_toolkit.synthesis import TimeFunction, is_ct_constructed

from conftest import digraphs
from reference import all_digraphs, has_cycle, naive_reachable


class TestDiGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiGraph(0)
        with pytest.raises(ValueError):
            DiGraph(2, frozenset({(1, 3)}))
        with pytest.raises(ValueError):
            DiGraph(2, frozenset({(0, 1)}))

    def test_add_edges_union(self):
        g = DiGraph(2, frozenset({(1, 2)}))
        assert g.add_edges({(2, 1)}).edges == {(1, 2), (2, 1)}
        assert g.add_edges(set()) == g
        with pytest.raises(ValueError):
            g.add_edges({(1, 3)})

    def test_inputs_unchanged(self):
        g = DiGraph(2, frozenset({(1, 2)}))
        g.add_edges({(2, 1)})
        assert g.edges == {(1, 2)}

    def test_worked_ring_plus_critical_set_has_30_edges(self, ring6):
        extra = {
            (3, 6), (6, 3), (4, 6), (6, 4), (1, 1), (2, 2), (3, 3), (4, 4),
            (5, 5), (6, 6), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (5, 3),
        }
        assert ring6.edge_count == 14
        assert ring6.add_edges(extra).edge_count == 30

    @given(digraphs(max_n=8), st.data())
    def test_add_then_remove_roundtrip(self, g: DiGraph, data):
        absent = [
            (u, v) for u in g.nodes for v in g.nodes if (u, v) not in g.edges
        ]
        extra = data.draw(st.frozensets(st.sampled_from(absent))) if absent else frozenset()
        assert DiGraph(g.n, g.add_edges(extra).edges - extra) == g


@st.composite
def edge_sets(draw, max_n: int = 9):
    """A node count and a random edge set on it, self-loops included."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    return n, draw(st.frozensets(pairs, max_size=n * n))


def rows_of(n: int, edges) -> list[int]:
    rows = [0] * (n + 1)
    for u, v in edges:
        rows[u] |= 1 << (v - 1)
    return rows


class TestRowStorage:
    """Graphs built from edges and from rows are the same value."""

    @given(edge_sets())
    def test_edges_and_rows_agree(self, case):
        n, edges = case
        from_edges = DiGraph(n, edges)
        from_rows = DiGraph.from_rows(n, rows_of(n, edges))
        assert from_edges.rows == from_rows.rows == tuple(rows_of(n, edges))
        for g in (from_edges, from_rows):
            assert g.edges == edges
            assert g.edge_count == len(edges)
        assert from_edges == from_rows
        assert hash(from_edges) == hash(from_rows)
        assert (from_edges == DiGraph(n, edges | {(1, 1)})) == ((1, 1) in edges)

    @given(edge_sets())
    def test_force_masks_drop_self_loops(self, case):
        n, edges = case
        expect = [0] * (n + 1)
        for u, v in edges:
            if u != v:
                expect[u] |= 1 << (v - 1)
        g = DiGraph(n, edges)
        assert g.force_masks == tuple(expect)
        transposed = [0] * (n + 1)
        for u, v in edges:
            if u != v:
                transposed[v] |= 1 << (u - 1)
        assert g.in_masks == tuple(transposed)

    @given(edge_sets(), st.data())
    def test_add_and_remove_round_trip(self, case, data):
        n, edges = case
        g = DiGraph(n, edges)
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        extra = data.draw(st.frozensets(pairs, max_size=8))
        grown = g.add_edges(extra)
        assert grown.edges == edges | extra
        assert grown.edge_count == len(edges | extra)
        assert DiGraph(n, grown.edges - (extra - edges)) == g
        assert DiGraph(n, edges - extra).add_edges(extra & edges) == g

    @given(edge_sets())
    def test_has_edge_is_membership(self, case):
        n, edges = case
        g = DiGraph(n, edges)
        for u in range(0, n + 2):
            for v in range(0, n + 2):
                assert g.has_edge(u, v) == ((u, v) in edges)

    @given(edge_sets(), st.data())
    def test_relabeled_renames_every_edge(self, case, data):
        n, edges = case
        order = data.draw(st.permutations(range(1, n + 1)))
        new_id = {v: i for i, v in enumerate(order, start=1)}
        relabeled = DiGraph(n, edges).relabeled(order)
        assert relabeled == DiGraph(n, {(new_id[u], new_id[v]) for u, v in edges})
        with pytest.raises(ValueError):
            DiGraph(n, edges).relabeled(list(order) + [n + 1])

    # Up to three set bits per row, bits move one at a time; denser
    # matrices go through the unpacked bit matrix.  Both paths, each forced
    # in turn, must agree on each side of the boundary.
    def test_sparse_and_dense_transposes_agree(self, monkeypatch):
        rng = np.random.default_rng(6)
        for n in (300, 1000):
            for m in (n // 2, 3 * n, 3 * n + 1, 12 * n):
                pairs = rng.choice(n * n, size=m, replace=False)
                edges = {(int(k) // n + 1, int(k) % n + 1) for k in pairs}
                expect = tuple(rows_of(n, {(v, u) for u, v in edges if u != v}))
                assert graphs._moves_bits(m, n) == (m <= 3 * n)
                assert DiGraph(n, edges).in_masks == expect
                for moves in (True, False):
                    monkeypatch.setattr(graphs, "_moves_bits", lambda ones, n: moves)
                    assert DiGraph(n, edges).in_masks == expect
                    monkeypatch.undo()

    def test_sparse_and_dense_relabelings_agree(self, monkeypatch):
        rng = np.random.default_rng(7)
        for n in (150, 1000):
            order = [int(v) for v in rng.permutation(n) + 1]
            new_id = {v: i for i, v in enumerate(order, start=1)}
            for m in (0, n, 3 * n, 3 * n + 1, 12 * n):
                pairs = rng.choice(n * n, size=m, replace=False)
                edges = {(int(k) // n + 1, int(k) % n + 1) for k in pairs}
                expect = DiGraph(n, {(new_id[u], new_id[v]) for u, v in edges})
                assert DiGraph(n, edges).relabeled(order) == expect
                for moves in (True, False):
                    monkeypatch.setattr(graphs, "_moves_bits", lambda ones, n: moves)
                    assert DiGraph(n, edges).relabeled(order) == expect
                    monkeypatch.undo()

    def test_bit_matrix_work_spans_several_chunks(self, monkeypatch):
        # the transpose and the relabeling unpack 1024 rows at a time
        monkeypatch.setattr(graphs, "_moves_bits", lambda ones, n: False)
        rng = np.random.default_rng(5)
        n = 2100
        edges = {(int(u), int(v)) for u, v in rng.integers(1, n + 1, size=(4 * n, 2))}
        g = DiGraph(n, edges)
        assert g.in_masks == tuple(rows_of(n, {(v, u) for u, v in edges if u != v}))
        order = [int(v) for v in rng.permutation(n) + 1]
        new_id = {v: i for i, v in enumerate(order, start=1)}
        assert g.relabeled(order) == DiGraph(n, {(new_id[u], new_id[v]) for u, v in edges})

    def test_from_rows_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            DiGraph.from_rows(0, [0])
        with pytest.raises(ValueError):
            DiGraph.from_rows(2, [0, 1])  # too few rows
        with pytest.raises(ValueError):
            DiGraph.from_rows(2, [1, 0, 0])  # row 0 must be empty
        with pytest.raises(ValueError):
            DiGraph.from_rows(2, [0, 0b100, 0])  # node 3 does not exist
        with pytest.raises(ValueError):
            DiGraph.from_rows(2, [0, -1, 0])

    def test_mask_nodes_lists_bits_ascending(self):
        assert mask_nodes(0) == []
        assert mask_nodes(0b1) == [1]
        assert mask_nodes(0b101100) == [3, 4, 6]
        assert mask_nodes(1 << 2999 | 1 << 1500) == [1501, 3000]

    @pytest.mark.parametrize("count", [0, 1, 64, 65, 500, 3001])
    def test_mask_nodes_on_sparse_and_dense_masks(self, count):
        # masks with over 64 set bits are unpacked with numpy
        bits = np.random.default_rng(count).choice(3001, size=count, replace=False)
        mask = sum(1 << int(b) for b in bits)
        nodes = mask_nodes(mask)
        assert nodes == sorted(int(b) + 1 for b in bits)
        assert all(type(v) is int for v in nodes)
        assert node_mask(nodes) == node_mask(reversed(nodes)) == mask

    def test_node_mask_sets_one_bit_per_node_however_often_listed(self):
        assert node_mask([]) == 0
        assert node_mask([6, 3, 3, 4, 6]) == 0b101100


def row_nodes_reference(rows, table=None):
    """:func:`row_nodes` without an order, one :func:`mask_nodes` per row."""
    table = table or range(len(rows))
    return [(u, [table[v] for v in mask_nodes(row)]) for u, row in enumerate(rows) if row]


def random_edges(rng, n: int, m: int) -> set:
    """``m`` distinct random edges on ``n`` nodes, self-loops included."""
    return {(int(k) // n + 1, int(k) % n + 1) for k in rng.choice(n * n, size=m, replace=False)}


class TestRowNodes:
    """The bulk listing of every nonempty row equals one walk per row, on
    the sparse path (bits one row at a time) and the dense one (unpacked
    chunks), each forced in turn."""

    @pytest.fixture(params=[True, False], ids=["per-row", "unpacked"])
    def path(self, request, monkeypatch):
        monkeypatch.setattr(graphs, "_moves_bits", lambda ones, n: request.param)
        return request.param

    @pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (5, 0), (9, 3), (9, 40), (70, 1000)])
    def test_matches_one_walk_per_row(self, path, n, m):
        rng = np.random.default_rng(n * 100 + m)
        edges = (random_edges(rng, n, m) | {(1, 1)}) if m else set()
        rows = DiGraph(n, edges).rows
        table = ("", *(f"x{v}" for v in range(n, 0, -1)))
        assert list(row_nodes(rows)) == row_nodes_reference(rows)
        assert list(row_nodes(rows, table)) == row_nodes_reference(rows, table)
        assert all(type(v) is int for _, nodes in row_nodes(rows) for v in nodes)

    def test_self_loops_and_empty_rows(self, path):
        g = DiGraph(6, {(1, 1), (1, 6), (3, 3), (6, 1), (6, 2), (6, 6)})
        assert list(row_nodes(g.rows)) == [(1, [1, 6]), (3, [3]), (6, [1, 2, 6])]
        assert list(row_nodes(DiGraph(6).rows)) == []

    @given(edge_sets(), st.data())
    def test_order_reads_the_relabeled_rows(self, case, data):
        n, edges = case
        order = data.draw(st.permutations(range(1, n + 1)))
        g = DiGraph(n, edges)
        table = ("", *(f"x{v}" for v in range(1, n + 1)))
        expect = row_nodes_reference(g.relabeled(order).rows, table)
        for moves in (True, False):
            with mock.patch.object(graphs, "_moves_bits", lambda ones, n: moves):
                assert list(row_nodes(g.rows, table, order)) == expect

    @pytest.mark.parametrize("with_order", [False, True])
    def test_large_graph_spans_several_bounded_chunks(self, path, monkeypatch, with_order):
        # at n = 2100 a chunk holds max(8, 2**16 // n) = 31 rows: 68 chunks
        rng = np.random.default_rng(8)
        n = 2100
        g = DiGraph(n, random_edges(rng, n, 40 * n) | {(n, n)})
        order = [int(v) for v in rng.permutation(n) + 1] if with_order else None
        expect = row_nodes_reference(g.relabeled(order).rows if order else g.rows)
        shapes = []
        original = graphs._unpack

        def unpack(rows, n):
            shapes.append((len(rows), n))
            return original(rows, n)

        monkeypatch.setattr(graphs, "_unpack", unpack)
        assert list(row_nodes(g.rows, None, order)) == expect
        if path:  # one row at a time: nothing is unpacked
            assert shapes == []
            return
        assert len(shapes) > 1
        assert sum(rows for rows, _ in shapes) == n + 1
        assert all(rows * width <= max(8 * width, graphs._CHUNK_BITS) for rows, width in shapes)


class TestControlSet:
    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            control_set([], 3)
        with pytest.raises(ValueError):
            control_set([4], 3)
        assert control_set([2, 1], 3) == frozenset({1, 2})


class TestReachableMask:
    def test_follows_edges_forward_only(self):
        g = DiGraph(4, {(1, 2), (2, 3), (4, 3)})
        assert mask_nodes(reachable_mask(g, {2})) == [2, 3]
        assert mask_nodes(reachable_mask(g, {1, 4})) == [1, 2, 3, 4]

    @given(digraphs(max_n=10), st.data())
    def test_matches_breadth_first_search(self, g: DiGraph, data):
        start = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1))))
        assert set(mask_nodes(reachable_mask(g, start))) == naive_reachable(g, start)


class TestChains:
    def test_chain_basics(self):
        cs = ChainSet(([2, 5, 3], (4,)))
        assert cs.chains == ((2, 5, 3), (4,))
        assert cs.sources == {2, 4} and cs.chain_edges == {(2, 5), (5, 3)}
        with pytest.raises(ValueError, match="^chains share nodes$"):
            ChainSet(((1, 1),))
        with pytest.raises(ValueError, match="^a chain needs at least one node$"):
            ChainSet(((4,), ()))
        with pytest.raises(ValueError, match="^a chain set needs at least one chain$"):
            ChainSet(())

    def test_partition_accepts_single_chain_path(self, path3):
        tf = TimeFunction(ChainSet(((1, 2, 3),)), {1: 1, 2: 2, 3: 3})
        assert is_ct_constructed(path3, tf)

    def test_partition_rejects_repeated_node(self):
        with pytest.raises(ValueError, match="^chains share nodes$"):
            ChainSet(((1, 2), (2, 3)))

    def test_partition_rejects_missing_cover_and_foreign_edges(self, path3):
        short = TimeFunction(ChainSet(((1, 2),)), {1: 1, 2: 2})
        assert not is_ct_constructed(path3, short)
        foreign = TimeFunction(ChainSet(((1, 3), (2,))), {1: 1, 2: 1, 3: 2})
        assert not is_ct_constructed(path3, foreign)

    def test_partition_on_two_chain_block(self, block_ring4):
        g, tf = block_ring4
        assert tf.n == g.n and tf.skeleton.edges <= g.edges
        assert tf.chains.sources == {1, 2}

    @given(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4),
                    min_size=1, max_size=4))
    def test_chains_share_nodes_exactly_when_a_node_repeats(self, chains):
        nodes = [v for c in chains for v in c]
        if len(set(nodes)) == len(nodes):
            cs = ChainSet(chains)
            assert cs.node_count == len(cs.nodes) == len(nodes)
        else:
            with pytest.raises(ValueError, match="^chains share nodes$"):
                ChainSet(chains)


class TestTopologicalOrder:
    def test_descending_edge_convention(self):
        g = DiGraph(3, frozenset({(2, 1), (3, 1), (3, 2)}))
        assert topological_order(g) == (1, 2, 3)

    def test_two_cycle_raises(self):
        with pytest.raises(CyclicError):
            topological_order(DiGraph(2, frozenset({(1, 2), (2, 1)})))

    def test_self_loop_raises(self):
        with pytest.raises(CyclicError):
            topological_order(DiGraph(1, frozenset({(1, 1)})))

    def test_edgeless_ties_broken_ascending(self):
        assert topological_order(DiGraph(3)) == (1, 2, 3)

    @given(digraphs(max_n=6, self_loops=False))
    def test_order_respects_every_edge(self, g: DiGraph):
        try:
            order = topological_order(g)
        except CyclicError:
            return
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[v] < pos[u] for u, v in g.edges)

    @staticmethod
    def sorts(g: DiGraph) -> bool:
        """True if ``g`` has an order; else the error's cycle must be one of g."""
        try:
            topological_order(g)
        except CyclicError as exc:
            cycle = exc.cycle
            assert len(set(cycle)) == len(cycle) >= 1
            assert all(g.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])), g
            assert exc.block is None
            return False
        return True

    def test_matches_dfs_cycle_detection_exhaustively(self):
        # every digraph on up to 3 nodes, self-loops included
        for n in (1, 2, 3):
            for g in all_digraphs(n):
                assert self.sorts(g) == (not has_cycle(g)), g

    def test_matches_dfs_cycle_detection_sampled(self):
        rng = np.random.default_rng(7)
        for n in (4, 5, 6):
            for g in all_digraphs(n, max_count=400, rng=rng):
                assert self.sorts(g) == (not has_cycle(g)), g

    def test_reports_a_cycle_not_every_node_left(self):
        # 1 -> 2 only leads into the cycle 2 -> 3 -> 2; node 4 sorts
        g = DiGraph(4, {(1, 2), (2, 3), (3, 2), (4, 1)})
        with pytest.raises(CyclicError, match=r"through nodes \[2, 3\]$") as info:
            topological_order(g)
        assert info.value.cycle == (2, 3)

    def test_large_dag_order_on_the_unpacked_path(self):
        # 400 nodes with every edge from higher to lower: in-neighbor lists
        # come from the unpacked in-masks, and ids are already an order
        g = DiGraph(400, {(u, v) for u in range(1, 401) for v in range(1, u)})
        assert not graphs._moves_bits(g.edge_count, g.n)
        assert topological_order(g) == tuple(range(1, 401))

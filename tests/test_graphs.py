from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssc_toolkit.graphs import (
    Chain,
    ChainSet,
    CyclicError,
    DiGraph,
    control_set,
    is_chain_partition,
    mask_nodes,
    topological_order,
)

from conftest import digraphs
from reference import all_digraphs, has_cycle


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

    def test_remove_edges_difference(self):
        path = DiGraph(3, frozenset({(1, 2), (2, 3)}))
        assert path.remove_edges({(2, 3)}).edges == {(1, 2)}
        assert path.remove_edges(set()) == path
        assert path.remove_edges(path.edges).edges == frozenset()
        # removing absent edges is a no-op
        assert path.remove_edges({(3, 1)}) == path

    def test_inputs_unchanged(self):
        g = DiGraph(2, frozenset({(1, 2)}))
        g.add_edges({(2, 1)})
        g.remove_edges({(1, 2)})
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
        assert g.add_edges(extra).remove_edges(extra) == g


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
        assert grown.remove_edges(extra - edges) == g
        assert g.remove_edges(extra).edges == edges - extra
        assert g.remove_edges(extra).add_edges(extra & edges) == g

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

    def test_sparse_and_dense_transposes_agree(self):
        # up to two edges per node on average, bits move one at a time;
        # denser graphs go through the unpacked bit matrix
        rng = np.random.default_rng(6)
        n = 300
        for m in (n // 2, 2 * n, 2 * n + 1, 8 * n):
            pairs = rng.choice(n * n, size=m, replace=False)
            edges = {(int(k) // n + 1, int(k) % n + 1) for k in pairs}
            g = DiGraph(n, edges)
            assert g.in_masks == tuple(rows_of(n, {(v, u) for u, v in edges if u != v}))

    def test_sparse_and_dense_relabelings_agree(self):
        # up to two edges per node on average, bits move one at a time
        rng = np.random.default_rng(7)
        n = 150
        order = [int(v) for v in rng.permutation(n) + 1]
        new_id = {v: i for i, v in enumerate(order, start=1)}
        for m in (0, n, 2 * n, 2 * n + 1, 6 * n):
            pairs = rng.choice(n * n, size=m, replace=False)
            edges = {(int(k) // n + 1, int(k) % n + 1) for k in pairs}
            relabeled = DiGraph(n, edges).relabeled(order)
            assert relabeled == DiGraph(n, {(new_id[u], new_id[v]) for u, v in edges})

    def test_bit_matrix_work_spans_several_chunks(self):
        # the transpose and the relabeling unpack 1024 rows at a time
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


class TestControlSet:
    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            control_set([], 3)
        with pytest.raises(ValueError):
            control_set([4], 3)
        assert control_set([2, 1], 3) == frozenset({1, 2})


class TestChains:
    def test_chain_basics(self):
        c = Chain((2, 5, 3))
        assert c.source == 2 and c.sink == 3
        assert c.edges == ((2, 5), (5, 3))
        assert Chain((4,)).edges == ()
        assert Chain((4,)).source == Chain((4,)).sink == 4
        with pytest.raises(ValueError):
            Chain((1, 1))

    def test_partition_accepts_single_chain_path(self, path3):
        assert is_chain_partition(path3, ChainSet((Chain((1, 2, 3)),)))

    def test_partition_rejects_repeated_node(self, path3):
        cs = ChainSet((Chain((1, 2)), Chain((2, 3))))
        assert not is_chain_partition(path3, cs)

    def test_partition_rejects_missing_cover_and_foreign_edges(self, path3):
        assert not is_chain_partition(path3, ChainSet((Chain((1, 2)),)))
        assert not is_chain_partition(path3, ChainSet((Chain((1, 3)), Chain((2,)))))

    def test_partition_on_two_chain_block(self, block_ring4):
        g, tf = block_ring4
        assert is_chain_partition(g, tf.chains)
        assert tf.chains.sources == {1, 2}


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

    def test_matches_dfs_cycle_detection_exhaustively(self):
        # every digraph on up to 3 nodes, self-loops included
        for n in (1, 2, 3):
            for g in all_digraphs(n):
                succeeded = True
                try:
                    topological_order(g)
                except CyclicError:
                    succeeded = False
                assert succeeded == (not has_cycle(g)), g

    def test_matches_dfs_cycle_detection_sampled(self):
        rng = np.random.default_rng(7)
        for n in (4, 5, 6):
            for g in all_digraphs(n, max_count=400, rng=rng):
                succeeded = True
                try:
                    topological_order(g)
                except CyclicError:
                    succeeded = False
                assert succeeded == (not has_cycle(g)), g

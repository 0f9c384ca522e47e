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

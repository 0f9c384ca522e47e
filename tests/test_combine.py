from __future__ import annotations

import time
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssc_toolkit.combine import (
    InfeasibleSequenceError,
    RejectedEdgeError,
    combine_dags,
    combine_networks,
    enumerate_sequences,
    max_inter_edges,
    remap_time,
)
from ssc_toolkit.forcing import is_zfs
from ssc_toolkit.graphs import ChainSet, CyclicError, DiGraph
from ssc_toolkit.robustness import INTER_NETWORK, verify_edge_set
from ssc_toolkit.synthesis import (
    TimeFunction,
    is_ct_constructed,
    perfect_edge_count,
    perfect_graph,
    random_chain_set,
    random_time_function,
    sample_member,
)

from reference import _largest_safe_sets, naive_is_zfs

SEQ = (1, 0, 0, 1)  # ring4, path3, path3, ring4


def dashed_inter() -> frozenset[tuple[int, int]]:
    """The 16 two-way admissible links of the worked layout (path nodes
    1..3, ring nodes 4..7)."""
    pairs = [(1, 5), (1, 4), (1, 7), (2, 4), (2, 7), (3, 4), (3, 6), (3, 7)]
    return frozenset((x, y) for a, b in pairs for x, y in ((a, b), (b, a)))


class TestRemapTime:
    def test_path_block(self, block_path3):
        _, tf = block_path3
        assert remap_time(SEQ, 0, tf) == {1: 1, 2: 3, 3: 4}

    def test_ring_block(self, block_ring4):
        _, tf = block_ring4
        assert remap_time(SEQ, 1, tf) == {1: 1, 2: 1, 4: 2, 3: 5}

    def test_single_block_sequence_is_identity(self, block_path3):
        _, tf = block_path3
        seq = (0, 0)
        assert remap_time(seq, 0, tf) == dict(tf.times)

    def test_occurrence_count_must_match(self, block_path3):
        _, tf = block_path3
        with pytest.raises(ValueError, match="occurs"):
            remap_time((0,), 0, tf)

    @given(st.data())
    def test_remap_preserves_relative_order(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        tfs = []
        for n in sizes:
            m = int(rng.integers(1, n + 1))
            tfs.append(random_time_function(random_chain_set(n, m, rng), rng))
        counts = [tf.n - tf.m for tf in tfs]
        seqs = enumerate_sequences(counts, limit=50)
        seq = seqs[int(rng.integers(len(seqs)))]
        for i, tf in enumerate(tfs):
            remapped = remap_time(seq, i, tf)
            for v in tf.times:
                for w in tf.times:
                    assert (tf.times[w] <= tf.times[v]) == (remapped[w] <= remapped[v])


class TestCombineNetworks:
    def test_worked_layout_with_all_dashed_links(self, block_path3, block_ring4):
        combined = combine_networks([block_path3, block_ring4], SEQ, dashed_inter())
        assert combined.graph.n == 7
        assert combined.sources == {1, 4, 5}
        assert is_zfs(combined.graph, combined.sources)
        tf = combined.times
        labels = {v: (tf.times[v], tf.tmax[v]) for v in sorted(tf.times)}
        assert labels == {
            1: (1, 2), 2: (3, 3), 3: (4, 5),
            4: (1, 4), 5: (1, 1), 6: (5, 5), 7: (2, 5),
        }

    def test_too_late_target_is_rejected(self, block_path3, block_ring4):
        with pytest.raises(RejectedEdgeError) as err:
            combine_networks([block_path3, block_ring4], SEQ, {(1, 6)})
        assert err.value.edge == (1, 6)
        assert err.value.tmax_u == 2 and err.value.t_v == 5
        assert "T_max(1)=2 < T(6)=5" in str(err.value)

    def test_no_links_gives_disjoint_union(self, block_path3, block_ring4):
        combined = combine_networks([block_path3, block_ring4], SEQ, set())
        assert combined.graph.edge_count == 4 + 10
        assert is_zfs(combined.graph, combined.sources)

    def test_internal_edge_rejected(self, block_path3, block_ring4):
        with pytest.raises(ValueError, match="inter-block"):
            combine_networks([block_path3, block_ring4], SEQ, {(1, 2)})

    def test_node_addressing(self, block_path3, block_ring4):
        combined = combine_networks([block_path3, block_ring4], SEQ, set())
        assert combined.offsets == (0, 3) and combined.block_sizes == (3, 4)
        assert combined.block_of(5) == 1
        assert combined.block_of(3) == 0
        with pytest.raises(ValueError):
            combined.block_of(8)


class TestMaxInterEdges:
    def test_worked_layout_counts(self, block_path3, block_ring4):
        report = max_inter_edges(combine_networks([block_path3, block_ring4], SEQ, ()))
        assert report.kind == INTER_NETWORK
        assert report.cardinality == report.bound == 20
        assert report.bound == perfect_edge_count(7, 3) - perfect_edge_count(3, 1) - perfect_edge_count(4, 2)
        assert dashed_inter() <= report.edges
        one_way = report.edges - dashed_inter()
        assert one_way == {(2, 5), (3, 5), (6, 1), (6, 2)}

    def test_single_block_has_none(self, block_path3):
        report = max_inter_edges(combine_networks([block_path3], (0, 0), ()))
        assert report.edges == frozenset() and report.bound == 0

    def test_two_looped_singletons_connect_both_ways(self):
        loop = DiGraph(1, frozenset({(1, 1)}))
        tf = TimeFunction(ChainSet(((1,),)), {1: 1})
        report = max_inter_edges(combine_networks([(loop, tf), (loop, tf)], (), ()))
        assert report.edges == {(1, 2), (2, 1)}
        assert report.bound == perfect_edge_count(2, 2) - 2 * perfect_edge_count(1, 1) == 2

    def test_full_installation_passes_and_is_maximal(self, block_path3, block_ring4):
        report = max_inter_edges(combine_networks([block_path3, block_ring4], SEQ, ()))
        combined = combine_networks([block_path3, block_ring4], SEQ, report.edges)
        assert is_zfs(combined.graph, combined.sources)
        # applying any subset keeps the verdict
        base = combine_networks([block_path3, block_ring4], SEQ, set())
        outcome = verify_edge_set(base.graph, base.sources, report, budget=2**20)
        assert outcome.passed and outcome.exhaustive

    def test_maximality_against_perfect_blocks(self, block_path3, block_ring4):
        # with every block maximal and every admissible link installed the
        # result is the maximal member of the merged family, so any other
        # cross-block edge must break the verdict
        blocks = [
            (perfect_graph(block_path3[1]), block_path3[1]),
            (perfect_graph(block_ring4[1]), block_ring4[1]),
        ]
        report = max_inter_edges(combine_networks(blocks, SEQ, ()))
        combined = combine_networks(blocks, SEQ, report.edges)
        assert combined.graph.edge_count == perfect_edge_count(7, 3)
        z = combined.sources
        for u in combined.graph.nodes:
            for v in combined.graph.nodes:
                e = (u, v)
                if e not in combined.graph.edges:
                    assert u != v  # only cross-block non-loops can be absent
                    assert not is_zfs(combined.graph.add_edges({e}), z), e

    @given(st.data())
    @settings(max_examples=30)
    def test_random_blocks_random_subsets_stay_controlled(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 100_000)))
        l = int(rng.integers(2, 4))
        blocks = []
        for _ in range(l):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            tf = random_time_function(random_chain_set(n, m, rng), rng)
            blocks.append((sample_member(tf, rng), tf))
        counts = [g.n - tf.m for g, tf in blocks]
        seqs = enumerate_sequences(counts, limit=30)
        seq = seqs[int(rng.integers(len(seqs)))]
        report = max_inter_edges(combine_networks(blocks, seq, ()))
        opts = sorted(report.edges)
        keep = rng.random(len(opts)) < 0.5
        subset = {e for e, k in zip(opts, keep) if k}
        combined = combine_networks(blocks, seq, subset)
        assert is_ct_constructed(combined.graph, combined.times)
        assert is_zfs(combined.graph, combined.sources)


class TestInterEdgesByBruteForce:
    def test_seeded_pairs_of_small_blocks_in_every_layout(self):
        """The closed form against brute force: over all cross-block edges of
        a merged layout, the largest set every subset of which keeps the
        merged sources a ZFS has ``max_inter_edges``' count, and the reported
        set is one of the largest.  Blocks of sizes up to (2, 3) give at most
        12 cross-block edges, 4096 subsets (two 3-node blocks would give
        2**18); six seeded pairs per size pair, in every layout, run in
        1-3 s on a 2-core VM."""
        rng = np.random.default_rng(9)

        def block(n):
            tf = random_time_function(random_chain_set(n, int(rng.integers(1, n + 1)), rng), rng)
            return sample_member(tf, rng), tf

        layouts = 0
        for sizes in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
            for _ in range(6):
                blocks = [block(n) for n in sizes]
                for seq in enumerate_sequences([g.n - tf.m for g, tf in blocks]):
                    merged = combine_networks(blocks, seq, ())
                    g, z = merged.graph, merged.sources
                    cross = [(u, v) for u in g.nodes for v in g.nodes
                             if merged.block_of(u) != merged.block_of(v)]
                    best, sets = _largest_safe_sets(
                        cross, lambda extra: naive_is_zfs(g.add_edges(extra), z))
                    report = max_inter_edges(merged)
                    assert report.cardinality == best, (blocks, seq)
                    assert report.edges in sets, (blocks, seq)
                    layouts += 1
        assert layouts >= 30


class TestOneMerge:
    def random_blocks(self, rng, count):
        blocks = []
        for _ in range(count):
            n = int(rng.integers(1, 7))
            tf = random_time_function(random_chain_set(n, int(rng.integers(1, n + 1)), rng), rng)
            blocks.append((sample_member(tf, rng), tf))
        return blocks

    @given(st.integers(0, 100_000))
    def test_max_inter_edges_is_the_cross_block_definition(self, seed):
        rng = np.random.default_rng(seed)
        blocks = self.random_blocks(rng, int(rng.integers(2, 4)))
        seqs = enumerate_sequences([g.n - tf.m for g, tf in blocks], limit=20)
        seq = seqs[int(rng.integers(len(seqs)))]
        merged = combine_networks(blocks, seq, set())
        t, tmax = merged.times.times, merged.times.tmax
        expect = {
            (u, v)
            for u in merged.graph.nodes
            for v in merged.graph.nodes
            if merged.block_of(u) != merged.block_of(v) and tmax[u] >= t[v]
        }
        assert max_inter_edges(combine_networks(blocks, seq, ())).edges == expect

    def test_a_different_merge_is_not_reused(self, block_path3, block_ring4):
        blocks = [block_path3, block_ring4]
        other = (0, 1, 1, 0)
        first = max_inter_edges(combine_networks(blocks, SEQ, ()))
        second = max_inter_edges(combine_networks(blocks, other, ()))
        assert first.edges != second.edges
        assert max_inter_edges(combine_networks(blocks, SEQ, ())) == first
        assert combine_networks(blocks, other, set()).times == second.witness


class TestEnumerateSequences:
    def test_multinomial_count(self):
        assert len(enumerate_sequences([2, 2])) == 6

    def test_lexicographic_order(self):
        seqs = enumerate_sequences([2, 1])
        assert seqs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_dag_mode_example(self):
        seqs = enumerate_sequences([2, 3, 1], mode="dag")
        assert (0, 1, 2, 1, 0, 1) in seqs
        assert all(a != b for s in seqs for a, b in zip(s, s[1:]))
        assert all(sorted(s) == [0, 0, 1, 1, 1, 2] for s in seqs)

    def test_dag_mode_pigeonhole_infeasible(self):
        with pytest.raises(InfeasibleSequenceError):
            enumerate_sequences([3, 1], mode="dag")

    def test_empty_counts_give_empty_sequence(self):
        assert enumerate_sequences([0, 0]) == [()]

    def test_limit(self):
        assert len(enumerate_sequences([2, 2], limit=2)) == 2

    @pytest.mark.parametrize("blocks", [0, 1, 2, 3, 4])
    def test_every_count_vector_up_to_eight_entries_matches_brute_force(self, blocks):
        """Every sequence over ``blocks`` blocks of at most eight entries,
        grouped by count vector: ``product`` yields each group in
        lexicographic order.  Both modes, whole and cut by a limit; no
        blocks give the one empty layout."""
        for total in range(9):
            layouts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for seq in product(range(blocks), repeat=total):
                layouts.setdefault(tuple(map(seq.count, range(blocks))), []).append(seq)
            for counts, seqs in layouts.items():
                for limit in (None, 1, 3):
                    assert enumerate_sequences(counts, limit=limit) == seqs[:limit]
                if 0 in counts:
                    continue
                spaced = [s for s in seqs if all(a != b for a, b in zip(s, s[1:]))]
                if not spaced:
                    with pytest.raises(InfeasibleSequenceError, match="cannot avoid"):
                        enumerate_sequences(counts, "dag")
                    continue
                for limit in (None, 1, 3):
                    assert enumerate_sequences(counts, "dag", limit) == spaced[:limit]

    def test_first_dag_layouts_of_many_blocks_match_brute_force(self):
        """Five to eight blocks of at most eight entries in all: the first
        layouts of a walk over every rearrangement, the equal neighbours
        dropped."""

        def rearrangements(counts):
            if not any(counts):
                yield ()
            for i, c in enumerate(counts):
                if c:
                    rest = (*counts[:i], c - 1, *counts[i + 1:])
                    yield from ((i, *tail) for tail in rearrangements(rest))

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                yield from ((first, *rest) for rest in compositions(total - first, parts - 1))

        for parts in range(5, 9):
            for total in range(parts, 9):
                for counts in compositions(total, parts):
                    spaced = (s for s in rearrangements(counts)
                              if all(a != b for a, b in zip(s, s[1:])))
                    assert enumerate_sequences(counts, "dag", 3) == list(islice(spaced, 3))

    @pytest.mark.parametrize("k", [1, 2, 7, 20, 50])
    def test_dag_walk_enters_no_dead_end(self, k):
        """``[1] * k + [k + 1]`` fits only with the big block first and at
        every other entry; a walk that tried block 0 first would search
        every arrangement below it."""
        start = time.perf_counter()
        (seq,) = enumerate_sequences([1] * k + [k + 1], "dag", limit=1)
        assert time.perf_counter() - start < 0.5
        assert seq == (k, *(x for i in range(k) for x in (i, k)))


class TestLayoutChecks:
    """A layout fits the blocks exactly when it is a rearrangement of the
    multiset that holds each block index ``i`` ``counts[i]`` times (so
    every entry is in range); the DAG construction also rejects a layout
    with two equal adjacent entries."""

    @staticmethod
    def chain_block(steps: int):
        """A one-chain block that needs ``steps`` entries: a path on
        ``steps + 1`` nodes, timed along the path."""
        nodes = tuple(range(1, steps + 2))
        tf = TimeFunction(ChainSet((nodes,)), {v: v for v in nodes})
        return DiGraph(len(nodes), frozenset(zip(nodes, nodes[1:]))), tf

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(lambda c: sum(c) <= 8),
        st.data(),
    )
    def test_exactly_the_rearrangements_pass(self, counts, data):
        required = [i for i, c in enumerate(counts) for _ in range(c)]
        seq = list(data.draw(st.permutations(required)))
        entry = st.integers(-1, len(counts))  # -1 and len(counts) are out of range
        if data.draw(st.booleans()):
            seq[data.draw(st.integers(0, len(seq)))
                :data.draw(st.integers(0, len(seq)))] = data.draw(st.lists(entry, max_size=2))
        seq = tuple(seq)
        rearrangement = sorted(seq) == required
        adjacent = any(a == b for a, b in zip(seq, seq[1:]))

        if min(counts) >= 1:  # a DAG block has at least one node
            dags = [DiGraph(c) for c in counts]
            if rearrangement and not adjacent:
                assert combine_dags(dags, seq).graph.n == sum(counts)
            else:
                with pytest.raises(InfeasibleSequenceError):
                    combine_dags(dags, seq)

        blocks = [self.chain_block(c) for c in counts]
        if rearrangement:
            assert combine_networks(blocks, seq, ()).graph.n == sum(counts) + len(counts)
        else:
            with pytest.raises(ValueError, match="do not match the required counts"):
                combine_networks(blocks, seq, ())


class TestCombineDags:
    def test_three_block_worked_sequence(self):
        d1 = DiGraph(2, frozenset({(2, 1)}))
        d2 = DiGraph(3, frozenset({(3, 1), (2, 1)}))
        d3 = DiGraph(1)
        seq = (0, 1, 2, 1, 0, 1)
        combo = combine_dags([d1, d2, d3], seq)
        assert combo.graph.n == 6
        assert combo.control == combo.spine[0]
        assert is_zfs(combo.graph, {combo.control})
        # layout: d1 occupies 1..2, d2 occupies 3..5, d3 is 6
        assert combo.spine == (1, 3, 6, 4, 2, 5)
        assert combo.times == {1: 1, 3: 2, 6: 3, 4: 4, 2: 5, 5: 6}

    def test_single_node_block(self):
        combo = combine_dags([DiGraph(1)], (0,))
        assert combo.graph.n == 1 and combo.control == 1
        assert is_zfs(combo.graph, {1})

    def test_two_singletons_make_a_path(self):
        combo = combine_dags([DiGraph(1), DiGraph(1)], (0, 1))
        assert combo.graph.edges == {(1, 2)}
        assert combo.control == 1

    def test_cyclic_block_rejected(self):
        cyc = DiGraph(2, frozenset({(1, 2), (2, 1)}))
        with pytest.raises(CyclicError) as info:
            combine_dags([DiGraph(1), cyc], (1, 0, 1))
        assert info.value.block == 1
        assert info.value.cycle == (1, 2)

    def test_bad_sequence_rejected(self):
        with pytest.raises(InfeasibleSequenceError):
            combine_dags([DiGraph(2), DiGraph(1)], (0, 0, 1))

    def test_spine_is_a_hamiltonian_chain_of_the_family(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dags = []
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 5))
                order = rng.permutation(n) + 1
                edges = {
                    (int(order[i]), int(order[j]))
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.4
                }
                dags.append(DiGraph(n, frozenset(edges)))
            counts = [g.n for g in dags]
            if max(counts) > sum(counts) - max(counts) + 1:
                continue
            seqs = enumerate_sequences(counts, mode="dag", limit=20)
            seq = seqs[int(rng.integers(len(seqs)))]
            combo = combine_dags(dags, seq)
            tf = TimeFunction(ChainSet((combo.spine,)), combo.times)
            assert sorted(combo.spine) == list(combo.graph.nodes)
            assert is_ct_constructed(combo.graph, tf)
            assert is_zfs(combo.graph, {combo.control})

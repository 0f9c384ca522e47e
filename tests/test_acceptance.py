"""Acceptance suite: one test per release criterion, with its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test asserts both the mathematical content and that it
finished inside the stated budget.
"""
from __future__ import annotations

import time
from itertools import combinations

import numpy as np
import pytest

import ssc_toolkit as st
from ssc_toolkit.oracle import _krylov_ranks, _sample_stack
from reference import all_digraphs

RING6_EDGES = frozenset(
    (x, y)
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6), (1, 6)]
    for x, y in ((a, b), (b, a))
)
RING6 = st.DiGraph(6, RING6_EDGES)
RING6_POLICY = st.ExplicitForces(((1, 6), (2, 3), (3, 4), (4, 5)))
LISTED_16 = frozenset(
    {
        (3, 6), (6, 3), (4, 6), (6, 4), (1, 1), (2, 2), (3, 3), (4, 4),
        (5, 5), (6, 6), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (5, 3),
    }
)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"{self.name}: PASS ({elapsed:.1f}s / {self.seconds:.0f}s budget)")
        else:
            print(f"{self.name}: FAIL ({elapsed:.1f}s)")
        return False


def test_criterion_1_worked_ring_additive_set():
    with _Budget("criterion 1 (worked-ring additive set)", 60):
        assert st.critical_additive_number(RING6, {1, 2}) == 16
        report = st.critical_additive_set(RING6, {1, 2}, RING6_POLICY)
        assert report.edges == LISTED_16
        outcome = st.verify_edge_set(RING6, {1, 2}, report)
        assert outcome.passed and outcome.exhaustive
        assert outcome.subsets_tested == 2**16


def test_criterion_2_edge_count_formula():
    with _Budget("criterion 2 (maximal edge-count formula)", 10):
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            for m in range(1, n + 1):
                for _ in range(20):
                    tf = st.random_time_function(st.random_chain_set(n, m, rng), rng)
                    built = st.perfect_graph(tf).edge_count
                    assert built == (n * (n + 1) + m * (2 * n - m - 1)) // 2
                    assert built == st.perfect_edge_count(n, m)


def test_criterion_3_maximal_graphs_reject_every_addition():
    with _Budget("criterion 3 (maximal graphs reject additions)", 30):
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            tf = st.random_time_function(st.random_chain_set(n, m, rng), rng)
            g = st.perfect_graph(tf)
            z = tf.chains.sources
            assert st.is_zfs(g, z)
            for u in g.nodes:
                for v in g.nodes:
                    if u != v and (u, v) not in g.edges:
                        assert not st.is_zfs(g.add_edges({(u, v)}), z)
            for v in g.nodes:
                assert st.is_zfs(g.add_edges({(v, v)}), z)
                assert st.is_zfs(st.DiGraph(g.n, g.edges - {(v, v)}), z)
            checked += 1


def _worked_blocks():
    both = lambda pairs: frozenset(
        (x, y) for a, b in pairs for x, y in ((a, b), (b, a))
    )
    g1 = st.DiGraph(3, both([(1, 2), (2, 3)]))
    tf1 = st.TimeFunction(st.ChainSet(((1, 2, 3),)), {1: 1, 2: 2, 3: 3})
    g2 = st.DiGraph(4, both([(1, 2), (2, 4), (1, 3), (4, 3), (1, 4)]))
    tf2 = st.TimeFunction(
        st.ChainSet(((1, 3), (2, 4))), {1: 1, 2: 1, 4: 2, 3: 3}
    )
    return [(g1, tf1), (g2, tf2)], (1, 0, 0, 1)


def test_criterion_4_worked_combination_labels_and_count():
    with _Budget("criterion 4 (worked combination)", 30):
        blocks, seq = _worked_blocks()
        assert st.remap_time(seq, 0, blocks[0][1]) == {1: 1, 2: 3, 3: 4}
        assert st.remap_time(seq, 1, blocks[1][1]) == {1: 1, 2: 1, 4: 2, 3: 5}
        report = st.max_inter_edges(st.combine_networks(blocks, seq, ()))
        tf = report.witness
        # interval labels of the combined layout (ring nodes offset by 3)
        assert {v: (tf.times[v], tf.tmax[v]) for v in sorted(tf.times)} == {
            1: (1, 2), 2: (3, 3), 3: (4, 5),
            4: (1, 4), 5: (1, 1), 6: (5, 5), 7: (2, 5),
        }
        assert report.cardinality == 20
        assert (
            st.perfect_edge_count(7, 3)
            - st.perfect_edge_count(3, 1)
            - st.perfect_edge_count(4, 2)
            == 43 - 8 - 15
            == 20
        )
        # independent pairwise interval enumeration
        block_of = lambda v: 0 if v <= 3 else 1
        by_hand = {
            (u, v)
            for u in range(1, 8)
            for v in range(1, 8)
            if block_of(u) != block_of(v) and tf.tmax[u] >= tf.times[v]
        }
        assert report.edges == by_hand


def test_criterion_5_combination_class_robustness():
    with _Budget("criterion 5 (combination class robustness)", 60):
        rng = np.random.default_rng(56)
        failures = 0
        for _ in range(200):
            blocks = []
            for _ in range(int(rng.integers(2, 4))):
                n = int(rng.integers(1, 6))
                m = int(rng.integers(1, n + 1))
                tf = st.random_time_function(st.random_chain_set(n, m, rng), rng)
                blocks.append((st.sample_member(tf, rng), tf))
            counts = [g.n - tf.m for g, tf in blocks]
            seqs = st.enumerate_sequences(counts, limit=24)
            seq = seqs[int(rng.integers(len(seqs)))]
            admissible = sorted(st.max_inter_edges(st.combine_networks(blocks, seq, ())).edges)
            keep = rng.random(len(admissible)) < 0.5
            subset = {e for e, k in zip(admissible, keep) if k}
            combined = st.combine_networks(blocks, seq, subset)
            if not st.is_zfs(combined.graph, combined.sources):
                failures += 1
        assert failures == 0


def test_criterion_6_dag_combination_single_control():
    with _Budget("criterion 6 (DAG combination)", 30):
        rng = np.random.default_rng(78)
        done = 0
        while done < 50:
            sizes = [int(rng.integers(1, 5)) for _ in range(3)]
            if max(sizes) > sum(sizes) - max(sizes) + 1:
                continue
            dags = []
            for n in sizes:
                order = rng.permutation(n) + 1
                edges = {
                    (int(order[i]), int(order[j]))
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.45
                }
                dags.append(st.DiGraph(n, frozenset(edges)))
            seqs = st.enumerate_sequences(sizes, mode="dag", limit=40)
            seq = seqs[int(rng.integers(len(seqs)))]
            combo = st.combine_dags(dags, seq)
            assert combo.times[combo.control] == 1
            assert st.is_zfs(combo.graph, {combo.control})
            done += 1


def test_criterion_7_oracle_consistency_small_graphs():
    with _Budget("criterion 7 (oracle consistency, n <= 4)", 300):
        rng = np.random.default_rng(90)
        graphs = []
        for n in (1, 2, 3):
            graphs.extend(all_digraphs(n))
        graphs.extend(all_digraphs(4, max_count=1600, rng=rng))
        assert len(graphs) >= 2000
        # 25 draws per forcing pair, diagonal modes in turn, ranked as one stack.
        modes = [("zero", "nonzero", "mixed")[t % 3] for t in range(25)]
        inconsistencies = 0
        pair_index = 0
        for g in graphs:
            nodes = list(g.nodes)
            for r in range(1, g.n + 1):
                for z in combinations(nodes, r):
                    if not st.is_zfs(g, z):
                        continue
                    pair_index += 1
                    draws = np.random.default_rng([90, pair_index])
                    stack = _sample_stack(g, draws, modes)
                    ranks = _krylov_ranks(stack, st.input_matrix(g.n, z))
                    inconsistencies += int(np.count_nonzero(ranks != g.n))
        assert inconsistencies == 0
        assert pair_index > 0


VARYING_PIECES = [
    {(1, 1), (3, 2)},
    {(1, 1), (2, 1), (3, 2)},
    {(2, 1), (3, 1), (3, 2)},
    {(3, 1)},
    {(3, 1), (3, 3)},
    {(3, 2), (3, 3)},
    {(3, 3)},
    {(2, 2)},
]


def _varying_schedule(seed: int = 0) -> st.LtvSchedule:
    tf = st.TimeFunction(st.ChainSet(((1, 2, 3),)), {1: 1, 2: 2, 3: 3})
    pieces = [st.DiGraph(3, edges) for edges in VARYING_PIECES]
    return st.schedule_from_edges(tf, (0, 1, 2, 3, 4, 5, 6, 7, 10), pieces, seed=seed)


def test_criterion_8_ltv_source_control_full_rank():
    with _Budget("criterion 8 (time-varying schedule, source control)", 10):
        sched = _varying_schedule()
        assert st.ltv_gramian_rank(sched, {1}) == 3


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated expectation is unattainable: on this schedule the back-edge "
        "toward the source is active on [1,3] with its self-loop weight "
        "nonzero, so the pair restricted to that window is controllable from "
        "node 2 for every admissible weight choice and the whole-span Gramian "
        "has full rank; only the family-level claim fails for a non-source "
        "control set, and its witness is the chain-only member (asserted in "
        "test_criterion_8_family_witness_is_deficient)"
    ),
)
def test_criterion_8_ltv_non_source_control_deficient_as_stated():
    sched = _varying_schedule()
    assert st.ltv_gramian_rank(sched, {2}) < 3


def test_criterion_8_family_witness_is_deficient():
    with _Budget("criterion 8 (family-level witness)", 10):
        tf = st.TimeFunction(st.ChainSet(((1, 2, 3),)), {1: 1, 2: 2, 3: 3})
        lean = st.schedule_from_edges(tf, (0, 1, 2, 3, 4, 5, 6, 7, 10), [st.DiGraph(3)] * 8, seed=13)
        assert st.ltv_gramian_rank(lean, {2}) < 3
        assert st.ltv_gramian_rank(lean, {1}) == 3


def test_criterion_9_property_suite_fixed_seeds():
    with _Budget("criterion 9 (fixed-seed property suite)", 120):
        rng = np.random.default_rng(2718)

        # construction/recognition round trip and times uniqueness, n <= 7
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, n + 1))
            tf = st.random_time_function(st.random_chain_set(n, m, rng), rng)
            g = st.perfect_graph(tf)
            witness = st.is_perfect(g, tf.chains.sources)
            assert witness is not None and witness[1].times == tf.times
            for rec in st.enumerate_forcing_schedules(g, tf.chains.sources, limit=30):
                assert rec.times == tf.times

        # remap preserves relative order of block times
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            tf = st.random_time_function(st.random_chain_set(n, m, rng), rng)
            other = int(rng.integers(1, 4))
            seq_items = [0] * (n - m) + [1] * other
            rng.shuffle(seq_items)
            seq = tuple(seq_items)
            remapped = st.remap_time(seq, 0, tf)
            for v in tf.times:
                for w in tf.times:
                    assert (tf.times[w] <= tf.times[v]) == (remapped[w] <= remapped[v])

        # forcing schedules always partition the graph into source-led chains
        for _ in range(60):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, n + 1))
            tf = st.random_time_function(st.random_chain_set(n, m, rng), rng)
            g = st.sample_member(tf, rng)
            rec = st.forcing_schedule(g, tf.chains.sources)
            assert rec.chains.nodes == frozenset(g.nodes)
            assert rec.chains.sources == tf.chains.sources
            assert rec.chains.chain_edges <= g.edges
            assert st.is_ct_constructed(g, rec)

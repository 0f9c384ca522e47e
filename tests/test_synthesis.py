from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ssc_toolkit.combine import (
    combine_dags,
    combine_networks,
    enumerate_sequences,
)
from ssc_toolkit.forcing import NotZfsError, enumerate_forcing_schedules, forcing_schedule, is_zfs
from ssc_toolkit.graphs import ChainSet, DiGraph
from ssc_toolkit.synthesis import (
    TimeFunction,
    is_ct_constructed,
    is_perfect,
    optional_edges,
    perfect_edge_count,
    perfect_graph,
    random_chain_set,
    random_time_function,
    sample_member,
)

from conftest import digraphs, timed_partitions
from reference import nonempty_subsets


@pytest.fixture
def two_chain_tf() -> TimeFunction:
    """Chains 1>2>3 and 4>5 with times (1,2,4) and (1,3)."""
    return TimeFunction(
        ChainSet(((1, 2, 3), (4, 5))), {1: 1, 4: 1, 2: 2, 5: 3, 3: 4}
    )


# the full admissible edge set of two_chain_tf, worked out by hand from
# tmax = {1: 1, 4: 2, 2: 3, 5: 4, 3: 4}
TWO_CHAIN_OPTIONAL = {
    (1, 1), (1, 4),
    (4, 1), (4, 4), (4, 2),
    (2, 1), (2, 4), (2, 2), (2, 5),
    (5, 1), (5, 4), (5, 2), (5, 5), (5, 3),
    (3, 1), (3, 4), (3, 2), (3, 5), (3, 3),
}


class TestValidateTimeFunction:
    def test_worked_two_chain_layout(self, two_chain_tf):
        assert two_chain_tf.gamma == 4
        assert two_chain_tf.tmax == {1: 1, 4: 2, 2: 3, 5: 4, 3: 4}
        assert (two_chain_tf.times[4], two_chain_tf.tmax[4]) == (1, 2)

    def test_duplicate_non_source_time(self, two_chain_tf):
        with pytest.raises(ValueError, match="invalid time function: .*share"):
            TimeFunction(two_chain_tf.chains, {1: 1, 4: 1, 2: 2, 5: 2, 3: 4})

    def test_single_node(self):
        tf = TimeFunction(ChainSet(((1,),)), {1: 1})
        assert tf.gamma == 1 and tf.tmax == {1: 1}

    def test_source_not_at_one(self, two_chain_tf):
        with pytest.raises(ValueError, match="invalid time function: .*source"):
            TimeFunction(two_chain_tf.chains, {1: 2, 4: 1, 2: 3, 5: 4, 3: 4})

    def test_decreasing_chain_times(self, two_chain_tf):
        with pytest.raises(ValueError, match="invalid time function: .*increase"):
            TimeFunction(two_chain_tf.chains, {1: 1, 4: 1, 2: 4, 5: 3, 3: 2})

    @given(timed_partitions(max_n=6), st.data())
    def test_nodes_must_be_exactly_1_to_n(self, tf: TimeFunction, data):
        # renaming the nodes of a valid time function changes only its node set
        low, top = data.draw(st.integers(0, 1)), data.draw(st.integers(tf.n, tf.n + 2))
        label = (None, *data.draw(st.permutations(range(low, top + 1)))[: tf.n])
        chains = ChainSet(tuple(tuple(label[v] for v in c) for c in tf.chains.chains))
        times = {label[v]: t for v, t in tf.times.items()}
        if set(times) == set(range(1, tf.n + 1)):
            assert TimeFunction(chains, times).tmax == {label[v]: t for v, t in tf.tmax.items()}
        else:
            with pytest.raises(ValueError, match=rf"^invalid time function: "
                               rf"chain nodes must be exactly 1\.\.{tf.n}$"):
                TimeFunction(chains, times)

    def test_every_problem_is_named(self, two_chain_tf):
        with pytest.raises(ValueError) as info:
            TimeFunction(two_chain_tf.chains, {1: 5, 4: 1, 2: 3, 5: 3, 3: 9})
        assert str(info.value) == (
            "invalid time function: source 1 has time 5, expected 1; "
            "non-source 3 has time 9 outside [2, 4]; "
            "nodes 2 and 5 share non-source time 3; "
            "chain times must increase: t(1)=5 >= t(2)=3"
        )


class TestMembership:
    def test_full_maximal_member(self, two_chain_tf):
        g = perfect_graph(two_chain_tf)
        assert is_ct_constructed(g, two_chain_tf)

    def test_chain_skeleton_is_minimal_member(self, two_chain_tf):
        g = DiGraph(5, two_chain_tf.chains.chain_edges)
        assert is_ct_constructed(g, two_chain_tf)

    def test_too_early_edge_rejected(self, two_chain_tf):
        # tmax(1) = 1 < t(3) = 4
        g = DiGraph(5, two_chain_tf.chains.chain_edges | {(1, 3)})
        assert not is_ct_constructed(g, two_chain_tf)

    def test_missing_chain_edge_rejected(self, two_chain_tf):
        g = DiGraph(5, frozenset({(1, 2), (2, 3)}))
        assert not is_ct_constructed(g, two_chain_tf)

    def test_reversed_chain_edges_are_always_admissible(self, two_chain_tf):
        opts = optional_edges(two_chain_tf)
        for u, v in two_chain_tf.chains.chain_edges:
            assert (v, u) in opts


class TestPerfectGraph:
    def test_single_node_is_just_the_self_loop(self):
        tf = TimeFunction(ChainSet(((1,),)), {1: 1})
        assert perfect_graph(tf).edges == {(1, 1)}
        assert perfect_edge_count(1, 1) == 1

    def test_two_chain_maximal_member_matches_hand_listing(self, two_chain_tf):
        g = perfect_graph(two_chain_tf)
        assert g.edges == two_chain_tf.chains.chain_edges | TWO_CHAIN_OPTIONAL
        assert g.edge_count == perfect_edge_count(5, 2) == 22

    def test_ring_variant_reproduces_critical_superset(self, ring6, ring6_policy):
        from ssc_toolkit.forcing import forcing_schedule

        rec = forcing_schedule(ring6, {1, 2}, ring6_policy)
        perf = perfect_graph(TimeFunction.from_record(rec))
        listed = {
            (3, 6), (6, 3), (4, 6), (6, 4), (1, 1), (2, 2), (3, 3), (4, 4),
            (5, 5), (6, 6), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (5, 3),
        }
        assert perf.edges == ring6.edges | listed
        assert perf.edge_count == 30

    def test_count_examples(self):
        assert perfect_edge_count(6, 2) == 30
        assert perfect_edge_count(4, 2) == 15
        assert perfect_edge_count(7, 3) == 43
        with pytest.raises(ValueError):
            perfect_edge_count(3, 4)
        with pytest.raises(ValueError):
            perfect_edge_count(3, 0)

    @given(timed_partitions(max_n=8))
    def test_count_formula_matches_construction(self, tf: TimeFunction):
        assert perfect_graph(tf).edge_count == perfect_edge_count(tf.n, tf.m)

    def test_count_formula_all_sizes_seeded(self):
        rng = np.random.default_rng(42)
        for n in range(1, 9):
            for m in range(1, n + 1):
                for _ in range(5):
                    tf = random_time_function(random_chain_set(n, m, rng), rng)
                    assert perfect_graph(tf).edge_count == perfect_edge_count(n, m)


def admissible_pairs(tf: TimeFunction) -> set[tuple[int, int]]:
    """The definition, pair by pair: every (u, v) with tmax(u) >= t(v)."""
    return {(u, v) for u in tf.times for v in tf.times if tf.tmax[u] >= tf.times[v]}


class TestAgainstTheDefinition:
    """The prefix-mask constructions equal the pairwise definitions."""

    @given(timed_partitions(max_n=12))
    def test_optional_edges(self, tf: TimeFunction):
        assert optional_edges(tf) == admissible_pairs(tf)
        rows = tf.admissible_rows
        assert len(rows) == tf.n + 1 and rows[0] == 0
        pairs = {(u, v) for u in tf.times for v in tf.times if rows[u] >> (v - 1) & 1}
        assert pairs == optional_edges(tf)

    @given(timed_partitions(max_n=12))
    def test_perfect_graph(self, tf: TimeFunction):
        g = perfect_graph(tf)
        assert g.n == tf.n
        assert g.edges == admissible_pairs(tf) | tf.chains.chain_edges
        assert tf.member_rows == g.rows
        assert tf.skeleton.n == tf.n and tf.skeleton.edges == tf.chains.chain_edges

    @given(timed_partitions(max_n=12), st.data())
    def test_is_ct_constructed(self, tf: TimeFunction, data):
        pairs = sorted((u, v) for u in tf.times for v in tf.times)
        chain = tf.chains.chain_edges
        drop = data.draw(st.frozensets(st.sampled_from(sorted(chain)))) if chain else frozenset()
        extra = data.draw(st.frozensets(st.sampled_from(pairs), max_size=2 * tf.n))
        g = DiGraph(tf.n, (chain - drop) | extra)
        allowed = admissible_pairs(tf) | chain
        expect = chain <= g.edges and g.edges <= allowed
        assert is_ct_constructed(g, tf) == expect

    def test_perfect_graph_at_n_2000(self):
        tf = random_time_function(random_chain_set(2000, 1, np.random.default_rng(1)),
                                  np.random.default_rng(2))
        g = perfect_graph(tf)
        assert g.edge_count == perfect_edge_count(2000, 1)
        t, tmax = tf.times, tf.tmax
        for u in (1, 777, 2000):
            targets = {v for v in tf.times if tmax[u] >= t[v]} | {
                v for w, v in tf.chains.chain_edges if w == u}
            assert {v for v in range(1, 2001) if g.has_edge(u, v)} == targets


class TestIsPerfect:
    def test_ring_is_not_perfect(self, ring6):
        assert is_perfect(ring6, {1, 2}) is None  # 14 != 30

    def test_requires_forcing_controls(self, path3):
        with pytest.raises(NotZfsError):
            is_perfect(path3, {3})

    def test_single_self_loop_node(self):
        g = DiGraph(1, frozenset({(1, 1)}))
        witness = is_perfect(g, {1})
        assert witness is not None
        cs, tf = witness
        assert cs.chains == ((1,),)
        assert tf.times == {1: 1}

    def test_roundtrip_on_worked_layout(self, two_chain_tf):
        g = perfect_graph(two_chain_tf)
        witness = is_perfect(g, {1, 4})
        assert witness is not None
        _, tf = witness
        assert tf.times == two_chain_tf.times

    def test_ring_plus_critical_set_is_recognized(self, ring6, ring6_policy):
        from ssc_toolkit.forcing import forcing_schedule

        rec = forcing_schedule(ring6, {1, 2}, ring6_policy)
        g = perfect_graph(TimeFunction.from_record(rec))
        witness = is_perfect(g, {1, 2})
        assert witness is not None
        # maximal graphs admit exactly one times map, whatever the schedule
        assert witness[1].times == rec.times

    @given(timed_partitions(max_n=7))
    def test_construction_recognition_roundtrip(self, tf: TimeFunction):
        g = perfect_graph(tf)
        witness = is_perfect(g, tf.chains.sources)
        assert witness is not None
        assert witness[1].times == tf.times

    @given(timed_partitions(max_n=7))
    def test_maximal_graphs_admit_one_times_map(self, tf: TimeFunction):
        g = perfect_graph(tf)
        for rec in enumerate_forcing_schedules(g, tf.chains.sources, limit=40):
            assert rec.times == tf.times

    @given(timed_partitions(max_n=6))
    def test_single_additions_break_maximal_graphs(self, tf: TimeFunction):
        g = perfect_graph(tf)
        z = tf.chains.sources
        for u in g.nodes:
            for v in g.nodes:
                if u != v and (u, v) not in g.edges:
                    assert not is_zfs(g.add_edges({(u, v)}), z)
        # self-loops are already present and re-adding them changes nothing
        assert all((v, v) in g.edges for v in g.nodes)


class TestSampling:
    @given(timed_partitions(max_n=8), st.integers(0, 10_000))
    def test_members_are_forced_by_the_sources(self, tf: TimeFunction, seed: int):
        g = sample_member(tf, np.random.default_rng(seed))
        assert is_ct_constructed(g, tf)
        assert is_zfs(g, tf.chains.sources)

    def test_chain_skeleton_forcing_sets_are_source_supersets(self):
        rng = np.random.default_rng(3)
        for n, m in [(3, 1), (4, 2), (5, 2), (6, 3)]:
            cs = random_chain_set(n, m, rng)
            g = DiGraph(n, cs.chain_edges)
            for z in nonempty_subsets(range(1, n + 1)):
                assert is_zfs(g, z) == (cs.sources <= z), (g, z)

    def test_generators_are_deterministic(self):
        a = random_chain_set(7, 3, np.random.default_rng(5))
        b = random_chain_set(7, 3, np.random.default_rng(5))
        assert a == b
        tfa = random_time_function(a, np.random.default_rng(6))
        tfb = random_time_function(b, np.random.default_rng(6))
        assert tfa.times == tfb.times

    @given(st.integers(1, 8), st.data())
    def test_random_generators_produce_valid_pairs(self, n: int, data):
        m = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        cs = random_chain_set(n, m, rng)
        assert cs.m == m and cs.node_count == n and cs.nodes == set(range(1, n + 1))
        random_time_function(cs, rng)  # raises if the time function is invalid


class TestProducersBuildValidTimeFunctions:
    """Construction checks every time function, so an invalid one from the
    library's own producers would raise here."""

    @given(digraphs(max_n=8), st.data())
    def test_forcing_records(self, g: DiGraph, data):
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        assume(is_zfs(g, z))
        TimeFunction.from_record(forcing_schedule(g, z))

    @given(st.lists(timed_partitions(max_n=5), min_size=1, max_size=3), st.data())
    def test_combined_networks(self, tfs: list[TimeFunction], data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        blocks = [(sample_member(tf, rng), tf) for tf in tfs]
        slots = [i for i, tf in enumerate(tfs) for _ in range(tf.n - tf.m)]
        seq = tuple(data.draw(st.permutations(slots)))
        assert combine_networks(blocks, seq, ()).times.n == sum(tf.n for tf in tfs)

    @given(st.lists(digraphs(max_n=4), min_size=2, max_size=3), st.data())
    def test_dag_combinations(self, graphs: list[DiGraph], data):
        dags = [DiGraph(g.n, {(u, v) for u, v in g.edges if u < v}) for g in graphs]
        counts = [g.n for g in dags]
        assume(2 * max(counts) <= sum(counts) + 1)  # else no sequence avoids repeats
        seq = data.draw(st.sampled_from(enumerate_sequences(counts, mode="dag", limit=20)))
        combo = combine_dags(dags, seq)
        TimeFunction(ChainSet((combo.spine,)), combo.times)

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssc_toolkit.forcing import (
    LOWEST_FORCED,
    LOWEST_FORCER,
    ExplicitForces,
    NotZfsError,
    enumerate_forcing_schedules,
    is_zfs,
)
from ssc_toolkit import robustness
from ssc_toolkit.graphs import DiGraph
from ssc_toolkit.robustness import (
    ADDITIVE,
    DEFAULT_BUDGET,
    SAMPLED_SUBSETS,
    SUBTRACTIVE,
    EdgeSetReport,
    VerificationOutcome,
    critical_additive_number,
    critical_additive_set,
    critical_subtractive_number,
    critical_subtractive_set,
    verify_edge_set,
)
from ssc_toolkit.synthesis import (
    TimeFunction,
    is_perfect,
    perfect_graph,
    random_chain_set,
    random_time_function,
    sample_member,
)

from conftest import digraphs, timed_partitions
from reference import (
    all_digraphs,
    brute_force_additive,
    brute_force_subtractive,
    naive_is_zfs,
    nonempty_subsets,
    swept_derived_set,
)


def _report(kind, n, edges, bound, witness=None) -> EdgeSetReport:
    """The report on the edge set ``edges`` of an ``n``-node network."""
    return EdgeSetReport(kind, DiGraph(n, edges), bound, witness)


class TestAdditiveNumber:
    def test_worked_ring(self, ring6):
        assert critical_additive_number(ring6, {1, 2}) == 16

    def test_perfect_graph_has_none(self, two_chain_perfect):
        g, sources = two_chain_perfect
        assert critical_additive_number(g, sources) == 0

    def test_path_matches_brute_force(self, path3):
        # 8 maximal-member edges minus the 2 present
        assert critical_additive_number(path3, {1}) == 6
        best, _ = brute_force_additive(path3, {1})
        assert best == 6

    def test_requires_forcing_controls(self, path3):
        with pytest.raises(NotZfsError):
            critical_additive_number(path3, {2})


@pytest.fixture
def two_chain_perfect():
    from ssc_toolkit.graphs import ChainSet
    from ssc_toolkit.synthesis import TimeFunction

    tf = TimeFunction(
        ChainSet(((1, 2, 3), (4, 5))), {1: 1, 4: 1, 2: 2, 5: 3, 3: 4}
    )
    return perfect_graph(tf), frozenset({1, 4})


class TestAdditiveSet:
    def test_worked_ring_exact_listing(self, ring6, ring6_policy):
        report = critical_additive_set(ring6, {1, 2}, ring6_policy)
        assert report.kind == ADDITIVE
        assert report.edges == {
            (3, 6), (6, 3), (4, 6), (6, 4), (1, 1), (2, 2), (3, 3), (4, 4),
            (5, 5), (6, 6), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (5, 3),
        }
        assert report.cardinality == report.bound == 16

    def test_perfect_graph_gets_empty_set(self, two_chain_perfect):
        g, sources = two_chain_perfect
        report = critical_additive_set(g, sources)
        assert report.edges == frozenset() and report.bound == 0

    def test_path_exact_membership_and_brute_force(self, path3):
        report = critical_additive_set(path3, {1})
        expected = {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}
        assert report.edges == expected
        best, witnesses = brute_force_additive(path3, {1})
        assert report.cardinality == best
        assert expected in witnesses

    def test_policies_may_differ_but_sizes_agree(self, ring6):
        by_forcer = critical_additive_set(ring6, {1, 2}, LOWEST_FORCER)
        by_forced = critical_additive_set(ring6, {1, 2}, LOWEST_FORCED)
        assert by_forcer.cardinality == by_forced.cardinality == 16


class TestSubtractive:
    def test_chain_skeleton_has_nothing_removable(self, path3):
        report = critical_subtractive_set(path3, {1})
        assert report.edges == frozenset()
        assert critical_subtractive_number(path3, {1}) == 0

    def test_worked_ring_non_chain_edges(self, ring6, ring6_policy):
        report = critical_subtractive_set(ring6, {1, 2}, ring6_policy)
        chain_edges = {(1, 6), (2, 3), (3, 4), (4, 5)}
        assert report.edges == ring6.edges - chain_edges
        assert report.cardinality == critical_subtractive_number(ring6, {1, 2}) == 10

    def test_single_node_self_loop(self):
        g = DiGraph(1, frozenset({(1, 1)}))
        report = critical_subtractive_set(g, {1})
        assert report.edges == {(1, 1)}

    def test_two_chain_block_count(self, block_ring4):
        g, _ = block_ring4
        assert critical_subtractive_number(g, {1, 2}) == 10 - 4 + 2


class TestVerifyEdgeSet:
    def test_worked_ring_exhaustive(self, ring6, ring6_policy):
        report = critical_additive_set(ring6, {1, 2}, ring6_policy)
        outcome = verify_edge_set(ring6, {1, 2}, report)
        assert outcome.passed and outcome.exhaustive
        assert outcome.subsets_tested == 2**16

    def test_bogus_edge_is_caught(self, path3):
        report = critical_additive_set(path3, {1})
        # (1, 3) jumps past the frontier: tmax(1) = 1 < t(3) = 3
        bogus = _report(ADDITIVE, path3.n, report.edges | {(1, 3)}, report.bound + 1)
        outcome = verify_edge_set(path3, {1}, bogus, budget=2**10)
        assert not outcome.passed
        assert outcome.counterexample is not None
        assert (1, 3) in outcome.counterexample
        assert not is_zfs(path3.add_edges(outcome.counterexample), {1})

    def test_empty_report_passes(self, path3):
        outcome = verify_edge_set(path3, {1}, _report(ADDITIVE, path3.n, frozenset(), 0))
        assert outcome.passed

    def test_subtractive_exhaustive(self, ring6, ring6_policy):
        report = critical_subtractive_set(ring6, {1, 2}, ring6_policy)
        outcome = verify_edge_set(ring6, {1, 2}, report)
        assert outcome.passed and outcome.exhaustive and outcome.subsets_tested == 2**10

    def test_sampled_regime_kicks_in_over_budget(self, ring6, ring6_policy):
        report = critical_additive_set(ring6, {1, 2}, ring6_policy)
        outcome = verify_edge_set(ring6, {1, 2}, report, budget=2**10, seed=1)
        assert outcome.passed and not outcome.exhaustive
        assert outcome.subsets_tested == 16 + 1 + 10_000

    def test_report_bound_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            _report(ADDITIVE, 2, frozenset({(1, 2)}), 2)

    def test_additive_report_must_be_new_edges(self, path3):
        report = _report(ADDITIVE, path3.n, frozenset({(1, 2)}), 1)
        with pytest.raises(ValueError, match="already"):
            verify_edge_set(path3, {1}, report)

    @pytest.mark.parametrize("n", [2, 5])
    def test_report_on_another_node_count_is_rejected(self, path3, n):
        report = _report(ADDITIVE, n, frozenset({(2, 1)}), 1)
        with pytest.raises(ValueError, match=f"on {n} nodes, the graph has 3"):
            verify_edge_set(path3, {1}, report)


def _naive_verification(g, z, report, budget, seed=0) -> VerificationOutcome:
    """verify_edge_set from first principles: the same subsets in the same
    order, one at a time, each applied to the raw edge set and tested with
    the reference closure."""
    edges = sorted(report.edges)
    k = len(edges)
    exhaustive = k == 0 or 2**k <= budget
    if exhaustive:
        subsets = (
            frozenset(e for pos, e in enumerate(edges) if (i ^ i >> 1) >> pos & 1)
            for i in range(2**k)
        )
    else:
        # random subset r keeps edges[pos] iff bit r of the pos-th run of
        # ceil(SAMPLED_SUBSETS / 8) raw generator bytes, read little-endian, is set
        size = -(-SAMPLED_SUBSETS // 8)
        raw = np.random.default_rng(seed).bytes(k * size)
        drawn = (
            frozenset(e for pos, e in enumerate(edges) if raw[pos * size + r // 8] >> r % 8 & 1)
            for r in range(SAMPLED_SUBSETS)
        )
        subsets = chain((frozenset([e]) for e in edges), [frozenset(edges)], drawn)
    tested = 0
    for subset in subsets:
        tested += 1
        applied = g.edges - subset if report.kind == SUBTRACTIVE else g.edges | subset
        if swept_derived_set(g.n, applied, z) != set(g.nodes):
            return VerificationOutcome(False, exhaustive, tested, subset)
    return VerificationOutcome(True, exhaustive, tested)


# {2, 3} forces this graph under either tie-break policy, but the two
# policies pick different chains, so the other policy's witness orders the
# closure against the forcing and subsets need more than one sweep.
MISORDERED = DiGraph(5, frozenset({
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 2),
    (3, 3), (3, 4), (3, 5), (4, 1), (4, 2), (5, 1),
}))


def _misordered_report(make):
    own = make(MISORDERED, {2, 3}, LOWEST_FORCED)
    other = make(MISORDERED, {2, 3}, LOWEST_FORCER)
    assert own.edges != other.edges
    return MISORDERED, {2, 3}, replace(own, witness=other.witness)


def _bogus_path3():
    path3 = DiGraph(3, frozenset({(1, 2), (2, 3)}))
    report = critical_additive_set(path3, {1})
    edges = report.edges | {(1, 3)}
    return path3, {1}, _report(ADDITIVE, path3.n, edges, report.bound + 1, report.witness)


def _bogus_pair():
    # each added edge alone keeps {1, 4, 5} forcing, and so do all three,
    # but (1, 3) and (4, 2) together stall: at seed 0 the sampled scan
    # first meets that subset at its 4th random draw
    g = DiGraph(5, frozenset({(1, 2), (4, 3)}))
    witness = critical_additive_set(g, {1, 4, 5}).witness
    report = _report(ADDITIVE, g.n, frozenset({(1, 3), (4, 2), (5, 2)}), 3, witness)
    return g, {1, 4, 5}, report


class TestVerifyWithMisleadingWitness:
    """The witness orders the closure sweeps; it must never change the outcome."""

    @pytest.mark.parametrize(
        "case, budget",
        [
            (lambda: _misordered_report(critical_additive_set), DEFAULT_BUDGET),
            (lambda: _misordered_report(critical_subtractive_set), DEFAULT_BUDGET),
            (lambda: _misordered_report(critical_additive_set), 2**5),
            (_bogus_path3, DEFAULT_BUDGET),
            (_bogus_path3, 2**6),
            (_bogus_pair, DEFAULT_BUDGET),
            (_bogus_pair, 2**2),
        ],
        ids=[
            "misordered-add", "misordered-sub", "misordered-add-sampled",
            "bogus-path3", "bogus-path3-sampled", "bogus-pair", "bogus-pair-sampled",
        ],
    )
    def test_same_outcome_as_witness_free_and_naive_scans(self, case, budget):
        g, z, report = case()
        assert report.witness is not None
        outcome = verify_edge_set(g, z, report, budget=budget)
        no_witness = verify_edge_set(g, z, replace(report, witness=None), budget=budget)
        assert outcome == no_witness == _naive_verification(g, z, report, budget)


@st.composite
def perturbations(draw, max_n: int = 6, max_k: int = 7):
    """A network of 3 or more nodes, controls, and a report of 3 to ``max_k``
    edges to toggle (fewer where the graph has fewer candidates).

    Half the networks are family members, with or without the family's
    witness (their chain sources force them), half arbitrary graphs with
    arbitrary control sets, every node included.  Candidate edges include
    self-loops.
    """
    if draw(st.booleans()):
        tf = draw(timed_partitions(max_n=max_n).filter(lambda tf: len(tf.times) >= 3))
        g = sample_member(tf, np.random.default_rng(draw(st.integers(0, 5000))))
        z = tf.chains.sources
        witness = draw(st.sampled_from([tf, None]))
    else:
        g = draw(digraphs(max_n=max_n).filter(lambda g: g.n >= 3))
        z = draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        witness = None
    kind = draw(st.sampled_from([ADDITIVE, SUBTRACTIVE]))
    if kind == SUBTRACTIVE:
        pool = sorted(g.edges)
    else:
        pool = [(u, v) for u in g.nodes for v in g.nodes if not g.has_edge(u, v)]
    k = draw(st.integers(min(3, len(pool)), min(max_k, len(pool))))
    edges = frozenset(draw(st.permutations(pool))[:k])
    return g, z, _report(kind, g.n, edges, k, witness)


def _lanes(width):
    """Run the lane scan with ``width`` subsets per block."""
    return mock.patch.object(robustness, "_LANES", width)


class TestLaneScan:
    """Every subset is one lane of a shared closure; the outcome must be
    that of testing the subsets one at a time, for any block width."""

    @pytest.mark.parametrize("width", [2, 8, robustness._LANES])
    @given(perturbations())
    def test_exhaustive_matches_sequential_scan(self, width, case):
        g, z, report = case
        with _lanes(width):
            outcome = verify_edge_set(g, z, report)
        assert outcome == _naive_verification(g, z, report, DEFAULT_BUDGET)
        assert outcome.exhaustive and outcome.subsets_tested <= 2 ** len(report.edges)

    @pytest.mark.parametrize("width", [8, robustness._LANES])
    @given(perturbations(max_k=9), st.integers(0, 3))
    def test_sampled_matches_sequential_scan(self, width, case, seed):
        g, z, report = case
        budget = 2 ** len(report.edges) // 2
        with _lanes(width):
            outcome = verify_edge_set(g, z, report, budget=budget, seed=seed)
        assert outcome == _naive_verification(g, z, report, budget, seed)

    @pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 2])
    @pytest.mark.parametrize(
        "kind, edges",
        [
            (ADDITIVE, frozenset()),
            (ADDITIVE, frozenset({(1, 1), (3, 3), (1, 3), (3, 1)})),
            (SUBTRACTIVE, frozenset({(2, 2), (1, 2), (2, 3)})),
        ],
        ids=["k0", "add", "sub"],
    )
    def test_controls_on_every_node_always_pass(self, kind, edges, budget):
        g = DiGraph(3, frozenset({(1, 2), (2, 2), (2, 3)}))
        report = _report(kind, g.n, edges, len(edges))
        outcome = verify_edge_set(g, {1, 2, 3}, report, budget=budget)
        assert outcome == _naive_verification(g, {1, 2, 3}, report, budget)
        assert outcome.passed

    @pytest.mark.parametrize(
        "n, controls, skeleton, breaking, counterexample",
        [
            # only the last toggle, (14, 16), breaks the path: subset 2**14
            # is the first of the second block, where gray bit 14 is folded
            # into the block's rows
            (16, {1}, [(v, v + 1) for v in range(1, 16)], [(14, 16)],
             {(14, 14), (14, 16)}),
            # 16 has two forcers and (14, 17), (15, 17) block one each: only
            # both together break, first in subset 2**14 = gray 0b11 << 13,
            # where gray bit 13 has flipped with the block's parity
            (17, set(range(1, 16)), [(14, 16), (15, 16), (16, 17)], [(14, 17), (15, 17)],
             {(14, 17), (15, 17)}),
        ],
        ids=["last-toggle", "block-parity"],
    )
    def test_first_failure_in_a_later_block(
        self, n, controls, skeleton, breaking, counterexample
    ):
        g = DiGraph(n, frozenset(skeleton))
        edges = frozenset({(v, v) for v in range(1, 16 - len(breaking))} | set(breaking))
        report = _report(ADDITIVE, n, edges, 15)
        assert robustness._LANES == 2**14 < 2**15
        outcome = verify_edge_set(g, controls, report)
        assert outcome == VerificationOutcome(False, True, 2**14 + 1, frozenset(counterexample))
        assert outcome == _naive_verification(g, controls, report, DEFAULT_BUDGET)

    @pytest.mark.parametrize("width", [64, robustness._LANES])
    def test_sampled_failure_at_a_late_draw(self, width):
        # controls 1..10 all force 12, 11 forces nothing; 12 forces 13.
        # Each of 1..10 is blocked by its own edge to 13, and (11, 13) lets
        # 11 force 13 first: only every block without the rescue stalls,
        # one subset in 2**11 of the random draws
        m = 10
        g = DiGraph(m + 3, frozenset({(c, m + 2) for c in range(1, m + 1)} | {(m + 2, m + 3)}))
        report = _report(ADDITIVE, g.n, frozenset((c, m + 3) for c in range(1, m + 2)), m + 1)
        controls = set(range(1, m + 2))
        with _lanes(width):
            outcome = verify_edge_set(g, controls, report, budget=2**m)
        assert outcome == _naive_verification(g, controls, report, 2**m)
        assert not outcome.passed and not outcome.exhaustive
        # the first stalling subset comes many 64-lane blocks into the scan
        assert outcome.subsets_tested > 10 * 64
        assert outcome.counterexample == {(c, m + 3) for c in range(1, m + 1)}


def _drawn_subsets(k, seed, width=robustness._LANES):
    """The random subsets the sampled scan of k toggles tests, as k columns
    put together from its blocks: bit r of column pos says whether random
    subset r keeps toggle pos."""
    columns, offset = [0] * k, 0
    with _lanes(width):
        for lanes, block in robustness._sampled_blocks(k, np.random.default_rng(seed)):
            columns = [c | b << offset for c, b in zip(columns, block)]
            offset += lanes
    assert offset == k + 1 + SAMPLED_SUBSETS
    return [c >> (k + 1) for c in columns]


class TestSampledDraw:
    """The random subsets are many and spread out: a naive scan that reads
    the same draws cannot tell a degenerate draw from a good one."""

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("seed", range(4))
    def test_small_k_draws_every_subset(self, k, seed):
        columns = _drawn_subsets(k, seed)
        subsets = {
            sum((c >> r & 1) << pos for pos, c in enumerate(columns))
            for r in range(SAMPLED_SUBSETS)
        }
        assert subsets == set(range(2**k))

    def test_64_columns_are_fair_and_distinct(self):
        columns = _drawn_subsets(64, 0)
        sigma = (SAMPLED_SUBSETS / 4) ** 0.5
        assert all(abs(bin(c).count("1") - SAMPLED_SUBSETS / 2) <= 5 * sigma for c in columns)
        assert len(set(columns)) == 64

    @pytest.mark.parametrize("width", [64, 1000])
    def test_subsets_do_not_depend_on_the_block_width(self, width):
        assert _drawn_subsets(40, 3, width) == _drawn_subsets(40, 3)


class TestReportEdges:
    @given(st.sets(st.tuples(st.integers(1, 70), st.integers(1, 70)), max_size=40))
    def test_rows_and_edges_describe_one_set(self, edges):
        rows = [0] * 71
        for u, v in edges:
            rows[u] |= 1 << (v - 1)
        built = EdgeSetReport(ADDITIVE, DiGraph.from_rows(70, rows), len(edges))
        from_pairs = _report(ADDITIVE, 70, edges, len(edges))
        assert built == from_pairs and hash(built) == hash(from_pairs)
        assert built.graph.rows == from_pairs.graph.rows
        assert built.edges == edges and built.cardinality == len(edges)
        assert replace(built, witness=None) == built

    def test_rows_must_attain_the_bound(self):
        with pytest.raises(ValueError, match="bound"):
            EdgeSetReport(SUBTRACTIVE, DiGraph.from_rows(2, (0, 0b11, 0)), 3)
        with pytest.raises(ValueError, match="rows"):
            EdgeSetReport(SUBTRACTIVE, DiGraph.from_rows(2, (1, 0b11, 0)), 2)
        with pytest.raises(ValueError, match="kind"):
            EdgeSetReport("sideways", DiGraph.from_rows(2, (0, 0b11, 0)), 2)

    def test_numpy_int_pairs_become_python_ints(self):
        edges = frozenset({(np.int64(1), np.int64(70)), (2, np.int32(3))})
        report = _report(ADDITIVE, 70, edges, 2)
        assert report.edges == {(1, 70), (2, 3)}
        assert all(type(x) is int for e in report.edges for x in e)


class TestMaximality:
    """Subsets of the computed sets always preserve the verdict; strict
    supersets always break it."""

    @given(timed_partitions(max_n=6), st.integers(0, 5000))
    def test_additive_set_is_maximal(self, tf, seed):
        rng = np.random.default_rng(seed)
        g = sample_member(tf, rng)
        z = tf.chains.sources
        report = critical_additive_set(g, z)
        assert verify_edge_set(g, z, report).passed
        full = g.add_edges(report.edges)
        for u in g.nodes:
            for v in g.nodes:
                e = (u, v)
                if e not in full.edges:
                    assert not is_zfs(full.add_edges({e}), z), e

    @given(timed_partitions(max_n=6), st.integers(0, 5000))
    def test_subtractive_set_is_maximal(self, tf, seed):
        rng = np.random.default_rng(seed)
        g = sample_member(tf, rng)
        z = tf.chains.sources
        report = critical_subtractive_set(g, z)
        assert verify_edge_set(g, z, report).passed
        skeleton = DiGraph(g.n, g.edges - report.edges)
        for e in sorted(skeleton.edges):
            # dropping a chain edge strands the rest of that chain
            assert not is_zfs(DiGraph(g.n, skeleton.edges - {e}), z), e

    @given(timed_partitions(max_n=7), st.integers(0, 5000))
    def test_numbers_are_schedule_independent(self, tf, seed):
        g = sample_member(tf, np.random.default_rng(seed))
        z = tf.chains.sources
        n_add = critical_additive_number(g, z)
        n_sub = critical_subtractive_number(g, z)
        for rec in enumerate_forcing_schedules(g, z, limit=12):
            add = critical_additive_set(g, z, ExplicitForces(rec.forces))
            sub = critical_subtractive_set(g, z, ExplicitForces(rec.forces))
            assert add.cardinality == n_add
            assert sub.cardinality == n_sub

    @given(timed_partitions(max_n=6), st.integers(0, 5000))
    def test_zero_additive_number_means_perfect(self, tf, seed):
        g = sample_member(tf, np.random.default_rng(seed))
        z = tf.chains.sources
        assert (critical_additive_number(g, z) == 0) == (is_perfect(g, z) is not None)
        assert critical_additive_number(g, z) >= 0


class TestTightBoundsByBruteForce:
    """The paper's tight bounds and its characterization of the critical
    sets, against the brute-force maxima, on every zero forcing control set
    of each digraph tested (self-loops included)."""

    @staticmethod
    def _cases(graphs):
        """Check every zero forcing control set of ``graphs``; the count."""
        cases = 0
        for g in graphs:
            for z in nonempty_subsets(g.nodes):
                if not naive_is_zfs(g, z):
                    continue
                tfs = enumerate_forcing_schedules(g, z)
                best, sets = brute_force_additive(g, z)
                assert critical_additive_number(g, z) == best, (g, z)
                assert set(sets) == {perfect_graph(tf).edges - g.edges for tf in tfs}, (g, z)
                best, sets = brute_force_subtractive(g, z)
                assert critical_subtractive_number(g, z) == best, (g, z)
                assert set(sets) == {g.edges - tf.skeleton.edges for tf in tfs}, (g, z)
                cases += 1
        return cases

    def test_every_digraph_up_to_3_nodes(self):
        graphs = chain.from_iterable(all_digraphs(n) for n in (1, 2, 3))
        assert self._cases(graphs) == 2082

    def test_a_seeded_sample_of_4_node_digraphs(self):
        """There are 2**16 digraphs on 4 nodes, and brute force on one
        control set scans up to 2**16 edge subsets, so not all of them can
        be checked.  A case takes about 25 ms and a sampled digraph has about
        8 zero forcing control sets: 50 seeded digraphs gave 419 cases in
        10 s on a 2-core VM, which keeps this test near 10 s."""
        graphs = all_digraphs(4, max_count=50, rng=np.random.default_rng(4))
        assert self._cases(graphs) > 300

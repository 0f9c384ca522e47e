from __future__ import annotations

from dataclasses import replace

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
    is_perfect,
    perfect_graph,
    random_chain_set,
    random_time_function,
    sample_member,
)

from conftest import timed_partitions
from reference import brute_force_additive, naive_is_zfs


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
    from ssc_toolkit.graphs import Chain, ChainSet
    from ssc_toolkit.synthesis import TimeFunction

    tf = TimeFunction(
        ChainSet((Chain((1, 2, 3)), Chain((4, 5)))), {1: 1, 4: 1, 2: 2, 5: 3, 3: 4}
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
        bogus = EdgeSetReport(ADDITIVE, report.edges | {(1, 3)}, report.bound + 1)
        outcome = verify_edge_set(path3, {1}, bogus, budget=2**10)
        assert not outcome.passed
        assert outcome.counterexample is not None
        assert (1, 3) in outcome.counterexample
        assert not is_zfs(path3.add_edges(outcome.counterexample), {1})

    def test_empty_report_passes(self, path3):
        outcome = verify_edge_set(path3, {1}, EdgeSetReport(ADDITIVE, frozenset(), 0))
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
            EdgeSetReport(ADDITIVE, frozenset({(1, 2)}), 2)

    def test_additive_report_must_be_new_edges(self, path3):
        report = EdgeSetReport(ADDITIVE, frozenset({(1, 2)}), 1)
        with pytest.raises(ValueError, match="already"):
            verify_edge_set(path3, {1}, report)


def _naive_verification(g, z, report, budget) -> VerificationOutcome:
    """verify_edge_set from first principles: the same subsets in the same
    order, each applied to the edge set and tested with the reference."""
    edges = sorted(report.edges)
    k = len(edges)
    apply = g.remove_edges if report.kind == SUBTRACTIVE else g.add_edges
    exhaustive = 2**k <= budget
    if exhaustive:
        subsets = [
            frozenset(e for pos, e in enumerate(edges) if (i ^ i >> 1) >> pos & 1)
            for i in range(2**k)
        ]
    else:
        rng = np.random.default_rng(0)  # verify_edge_set's default seed
        subsets = [frozenset([e]) for e in edges] + [frozenset(edges)]
        for _ in range(SAMPLED_SUBSETS):
            keep = rng.random(k) < 0.5
            subsets.append(frozenset(e for e, kp in zip(edges, keep) if kp))
    for tested, subset in enumerate(subsets, start=1):
        if not naive_is_zfs(apply(subset), z):
            return VerificationOutcome(False, exhaustive, tested, subset)
    return VerificationOutcome(True, exhaustive, len(subsets))


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
    return path3, {1}, replace(report, edges=report.edges | {(1, 3)}, bound=report.bound + 1)


def _bogus_pair():
    # each added edge alone keeps {1, 4, 5} forcing, and so do all three,
    # but (1, 3) and (4, 2) together stall: the sampled scan first meets
    # that subset at its 41st random draw
    g = DiGraph(5, frozenset({(1, 2), (4, 3)}))
    witness = critical_additive_set(g, {1, 4, 5}).witness
    report = EdgeSetReport(ADDITIVE, frozenset({(1, 3), (4, 2), (5, 2)}), 3, witness)
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
        skeleton = g.remove_edges(report.edges)
        for e in sorted(skeleton.edges):
            # dropping a chain edge strands the rest of that chain
            assert not is_zfs(skeleton.remove_edges({e}), z), e

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

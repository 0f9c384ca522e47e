from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssc_toolkit.forcing import is_zfs, stalled_white_set
from ssc_toolkit.graphs import Chain, ChainSet, DiGraph
from ssc_toolkit.oracle import (
    DIAG_MIXED,
    DIAG_NONZERO,
    DIAG_ZERO,
    LtvSchedule,
    input_matrix,
    kalman_rank,
    ltv_gramian_rank,
    sample_matrix,
    schedule_from_edges,
    schedule_from_family,
    _uncontrollable_witness,
    transition_matrix,
    verify_ltv_family,
    verify_ssc_numeric,
)
from ssc_toolkit.synthesis import (
    TimeFunction,
    random_chain_set,
    random_time_function,
    sample_member,
)

from conftest import digraphs, timed_partitions
from reference import rk4_transition


class TestSampling:
    def test_edgeless_zero_diag_is_zero(self):
        a = sample_matrix(DiGraph(2), np.random.default_rng(1), DIAG_ZERO)
        assert not a.any()

    def test_path_structure_is_forced(self):
        a = sample_matrix(DiGraph(2, frozenset({(1, 2)})), np.random.default_rng(3), DIAG_NONZERO)
        assert a[1, 0] != 0 and a[0, 0] != 0 and a[1, 1] != 0
        assert a[0, 1] == 0

    def test_ring_offdiagonal_support_counts_edges(self, ring6):
        a = sample_matrix(ring6, np.random.default_rng(5), DIAG_MIXED)
        off = [(i, j) for i in range(6) for j in range(6) if i != j and a[i, j] != 0]
        assert len(off) == 14
        for i, j in off:
            assert (j + 1, i + 1) in ring6.edges

    def test_deterministic_given_seed(self, ring6):
        a = sample_matrix(ring6, np.random.default_rng(9), DIAG_MIXED)
        b = sample_matrix(ring6, np.random.default_rng(9), DIAG_MIXED)
        assert np.array_equal(a, b)

    @given(digraphs(max_n=6), st.integers(0, 9999))
    def test_magnitudes_stay_in_band(self, g: DiGraph, seed: int):
        a = sample_matrix(g, np.random.default_rng(seed), DIAG_MIXED)
        nz = np.abs(a[a != 0])
        assert nz.size == 0 or (nz.min() >= 0.1 and nz.max() <= 2.0)


class TestKalmanRank:
    def test_decoupled_identity(self):
        assert kalman_rank(np.eye(2), {1}) == 1

    def test_driven_path(self):
        a = np.array([[0.0, 0.0], [1.3, 0.0]])
        assert kalman_rank(a, {1}) == 2

    def test_ring_samples_reach_full_rank(self, ring6):
        for seed in range(10):
            a = sample_matrix(ring6, np.random.default_rng(seed), DIAG_MIXED)
            assert kalman_rank(a, {1, 2}) == 6

    def test_threshold_on_known_ranks(self):
        # companion chain: rank grows one per node regardless of diagonal
        for n in (2, 4, 6, 8):
            a = np.diag(np.linspace(0.1, 2.0, n - 1), -1)
            assert kalman_rank(a, {1}) == n
            assert kalman_rank(a, {2}) == n - 1


class TestVerifySscNumeric:
    def test_ring_consistent(self, ring6):
        report = verify_ssc_numeric(ring6, {1, 2}, trials=60, seed=0)
        assert report.expected_zfs and report.consistent
        assert report.full_rank == report.trials == 60

    def test_single_node(self):
        report = verify_ssc_numeric(DiGraph(1), {1}, trials=10, seed=0)
        assert report.consistent and report.full_rank == 10

    def test_stalled_controls_get_witness(self, path3):
        report = verify_ssc_numeric(path3, {3}, trials=20, seed=0)
        assert not report.expected_zfs
        assert report.consistent  # negative verdicts are existence-level
        assert report.stalled_white == {1, 2}
        assert report.witness is not None and report.witness_rank < 3

    @given(digraphs(max_n=4), st.data())
    @settings(max_examples=40)
    def test_forcing_verdict_predicts_full_rank(self, g: DiGraph, data):
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        report = verify_ssc_numeric(g, z, trials=10, seed=17)
        if is_zfs(g, z):
            assert report.full_rank == report.trials
        else:
            assert report.stalled_white
        assert report.consistent


def chain3_schedule(varying_pieces, seed=0):
    tf = TimeFunction(ChainSet((Chain((1, 2, 3)),)), {1: 1, 2: 2, 3: 3})
    breakpoints, per_interval = varying_pieces
    return tf, schedule_from_edges(tf, breakpoints, per_interval, seed=seed)


class TestTransitionMatrix:
    def test_identity_at_equal_times(self, chain3_tf):
        sched = schedule_from_family(chain3_tf, (0.0, 1.0, 2.0), np.random.default_rng(0))
        assert np.allclose(transition_matrix(sched, 0.7, 0.7), np.eye(3))

    def test_single_piece_is_matrix_exponential(self, chain3_tf):
        from scipy.linalg import expm

        sched = schedule_from_family(chain3_tf, (0.0, 1.0), np.random.default_rng(1))
        assert np.allclose(transition_matrix(sched, 0.0, 1.0), expm(sched.matrices[0]))

    def test_two_piece_product_matches_rk4(self, chain3_tf):
        sched = schedule_from_family(chain3_tf, (0.0, 0.8, 2.0), np.random.default_rng(2))
        phi = transition_matrix(sched, 0.0, 2.0)
        ref = rk4_transition(sched.matrices, sched.breakpoints)
        assert np.linalg.norm(phi - ref) / np.linalg.norm(ref) < 1e-6

    def test_out_of_span_rejected(self, chain3_tf):
        sched = schedule_from_family(chain3_tf, (0.0, 1.0), np.random.default_rng(3))
        with pytest.raises(ValueError):
            transition_matrix(sched, -0.5, 0.5)

    @given(timed_partitions(max_n=6), st.integers(0, 9999))
    @settings(max_examples=30)
    def test_composition_property(self, tf, seed):
        rng = np.random.default_rng(seed)
        bps = tuple(np.cumsum([0.0, *rng.uniform(0.2, 1.0, 3)]))
        sched = schedule_from_family(tf, bps, rng)
        t1, t2, t3 = bps[0], float(rng.uniform(bps[1], bps[2])), bps[-1]
        lhs = transition_matrix(sched, t1, t3)
        rhs = transition_matrix(sched, t2, t3) @ transition_matrix(sched, t1, t2)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(lhs))


class TestGramian:
    def test_decoupled_node_limits_rank(self):
        g = DiGraph(2, frozenset({(1, 1), (2, 2)}))
        a = np.diag([0.5, -0.3])
        sched = LtvSchedule((0.0, 1.0), (g,), (a,))
        assert ltv_gramian_rank(sched, {1}) == 1
        assert ltv_gramian_rank(sched, {1, 2}) == 2

    def test_earlier_reach_is_carried_but_not_grown(self):
        """Piece one reaches span{e1, e2}; piece two maps e2 to e2 + e3 and
        drives only e1, so the span is {e1, e2 + e3}.  Multiplying the
        carried directions by the second matrix would wrongly add e3."""
        g1, g2 = DiGraph(3, frozenset({(1, 2)})), DiGraph(3, frozenset({(2, 3)}))
        a1, a2 = np.zeros((3, 3)), np.zeros((3, 3))
        a1[1, 0] = a2[2, 1] = 1.0
        sched = LtvSchedule((0.0, 1.0, 2.0), (g1, g2), (a1, a2))
        assert ltv_gramian_rank(sched, {1}) == 2

    def test_worked_piecewise_example_from_source(self, varying_pieces):
        _, sched = chain3_schedule(varying_pieces)
        assert ltv_gramian_rank(sched, {1}) == 3

    def test_worked_piecewise_example_from_middle_node(self, varying_pieces):
        """The middle node drives everything on this particular schedule.

        The back-edge toward the source is present on a subinterval, and
        while it is the one-piece system is already controllable from
        node 2 for every admissible weight choice, so the whole-span
        Gramian has full rank.  Only the family-level statement fails for
        a non-source control set; its canonical witness is the chain-only
        schedule, checked below.
        """
        _, sched = chain3_schedule(varying_pieces)
        assert ltv_gramian_rank(sched, {2}) == 3

    def test_chain_only_member_is_deficient_off_source(self, chain3_tf):
        sched = schedule_from_family(
            chain3_tf, (0.0, 3.0, 7.0, 10.0), np.random.default_rng(8), chain_only=True
        )
        assert ltv_gramian_rank(sched, {2}) < 3
        assert ltv_gramian_rank(sched, {3}) < 3
        assert ltv_gramian_rank(sched, {1}) == 3

    def test_matrix_must_match_interval_graph(self, chain3_tf):
        g = DiGraph(3, chain3_tf.chains.chain_edges)
        bad = np.zeros((3, 3))  # chain edges missing
        with pytest.raises(ValueError, match="disagrees"):
            LtvSchedule((0.0, 1.0), (g,), (bad,))

    @pytest.mark.parametrize("breakpoints", [
        (0.0, float("nan"), 2.0), (0.0, 1.0, float("inf")), (float("-inf"), 0.0, 1.0),
    ])
    def test_breakpoints_must_be_finite(self, breakpoints):
        g = DiGraph(2)
        with pytest.raises(ValueError, match="finite"):
            LtvSchedule(breakpoints, (g, g), (np.zeros((2, 2)),) * 2)


class TestVerifyLtvFamily:
    def test_two_chain_layout_full_marks(self):
        tf = TimeFunction(
            ChainSet((Chain((1, 2, 3)), Chain((4, 5)))), {1: 1, 4: 1, 2: 2, 5: 3, 3: 4}
        )
        report = verify_ltv_family(tf, trials=20, seed=0)
        assert report.sources_full_rank == 20
        assert report.deficient_confirmed == report.deficient_checks == 20
        assert report.consistent

    def test_single_chain_sink_control_always_deficient(self, chain3_tf):
        rng = np.random.default_rng(0)
        for trial in range(10):
            sched = schedule_from_family(chain3_tf, (0.0, 1.0, 2.0), rng, chain_only=True)
            assert ltv_gramian_rank(sched, {3}) < 3

    def test_all_sources_layout_trivially_full(self):
        tf = TimeFunction(ChainSet((Chain((1,)), Chain((2,)))), {1: 1, 2: 1})
        report = verify_ltv_family(tf, trials=5, seed=1)
        assert report.sources_full_rank == 5
        assert report.consistent

    def test_single_node_has_no_deficiency_check(self):
        tf = TimeFunction(ChainSet((Chain((1,)),)), {1: 1})
        report = verify_ltv_family(tf, trials=3, seed=2)
        assert report.deficient_checks == 0 and report.consistent


def directed_path(n: int) -> DiGraph:
    return DiGraph(n, frozenset((v, v + 1) for v in range(1, n)))


def random_family(n: int, m: int, rng: np.random.Generator) -> TimeFunction:
    return random_time_function(random_chain_set(n, m, rng), rng)


class TestBeyondSmallGraphs:
    """Sizes where powers of A, or a fixed number of quadrature columns
    per piece, lose rank on controllable systems."""

    def test_long_directed_path_from_its_source(self):
        report = verify_ssc_numeric(directed_path(40), {1}, trials=30, seed=0)
        assert report.expected_zfs and report.consistent
        assert report.full_rank == 30

    def test_one_control_one_piece_beyond_sixteen_nodes(self):
        rng = np.random.default_rng(5)
        tf = random_family(24, 1, rng)
        sched = schedule_from_family(tf, (0.0, 1.0), rng)
        assert ltv_gramian_rank(sched, tf.chains.sources) == 24

    @pytest.mark.parametrize("m", [1, 60])
    def test_large_members_reach_full_rank(self, m):
        rng = np.random.default_rng([300, m])
        tf = random_family(300, m, rng)
        report = verify_ssc_numeric(sample_member(tf, rng), tf.chains.sources, trials=3, seed=m)
        assert report.full_rank == 3 and report.consistent
        sched = schedule_from_family(tf, (0.0, 0.6, 1.5), rng)
        assert ltv_gramian_rank(sched, tf.chains.sources) == 300


class TestUncontrollableWitness:
    def test_witness_is_an_exact_pbh_certificate(self):
        """Seeded sweep over stalled control sets on graphs with n <= 40:
        the witness has the class's off-diagonal support, the stalled
        indicator is an exact left null vector, the rank falls short, and
        the oracle's report carries it."""
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 150:
            n = int(rng.integers(2, 41))
            adj = rng.random((n, n)) < rng.choice([0.05, 0.1, 0.2, 0.4])
            g = DiGraph(n, frozenset((int(u) + 1, int(v) + 1) for u, v in zip(*np.nonzero(adj))))
            size = int(rng.integers(1, n // 3 + 2))
            z = frozenset(int(v) + 1 for v in rng.choice(n, size=size, replace=False))
            white = stalled_white_set(g, z)
            if not white:
                continue
            checked += 1
            a = _uncontrollable_witness(g, white)
            off = a != 0.0
            np.fill_diagonal(off, False)
            assert {(int(j) + 1, int(i) + 1) for i, j in zip(*np.nonzero(off))} == {
                (u, v) for u, v in g.edges if u != v
            }
            x = np.zeros(n)
            x[[v - 1 for v in white]] = 1.0
            assert not (x @ a).any()
            assert kalman_rank(a, z) < n
            report = verify_ssc_numeric(g, z, trials=1, seed=checked)
            assert report.consistent and np.array_equal(report.witness, a)
            assert report.witness_rank == kalman_rank(a, z)

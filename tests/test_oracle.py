from __future__ import annotations

import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssc_toolkit.documents import parse_document, parse_schedule_file
from ssc_toolkit.forcing import is_zfs, stalled_white_set
from ssc_toolkit.graphs import ChainSet, DiGraph, mask_nodes
from ssc_toolkit import oracle
from ssc_toolkit.oracle import (
    DIAG_MIXED,
    DIAG_NONZERO,
    DIAG_ZERO,
    LtvSchedule,
    _krylov_ranks,
    _reachable_basis,
    _sample_stack,
    _trial_ranks,
    input_matrix,
    ltv_gramian_rank,
    sample_matrix,
    schedule_from_edges,
    _uncontrollable_witness,
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


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def krylov_rank(a: np.ndarray, controls) -> int:
    """Rank of [B, AB, ..., A^(n-1)B], B the control identity columns."""
    return len(_reachable_basis(a, input_matrix(a.shape[0], controls)))


def drawn_matrix(g: DiGraph, seed: int, mode: str) -> np.ndarray:
    """The first draw of a generator seeded with ``seed``, written out from
    one ``random((3, e + n))`` call: magnitudes, signs and diagonal coins,
    one row each, over the off-diagonal edges in (row, column) order and
    then the diagonal."""
    support = sorted((v - 1, u - 1) for u, v in g.edges if u != v)
    e, n = len(support), g.n
    mag, sign, coin = np.random.default_rng(seed).random((3, e + n))
    w = [(-1.0 if s < 0.5 else 1.0) * (0.1 + 1.9 * m) for m, s in zip(mag, sign)]
    a = np.zeros((n, n))
    for (i, j), x in zip(support, w):
        a[i, j] = x
    for i in range(n):
        kept = {DIAG_ZERO: False, DIAG_NONZERO: True, DIAG_MIXED: coin[e + i] < 0.5}[mode]
        a[i, i] = w[e + i] if kept else 0.0
    return a


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

    @given(digraphs(max_n=12))
    def test_support_is_the_sorted_off_diagonal_pairs(self, g: DiGraph):
        rows, cols = oracle._support(g)
        pairs = sorted((v - 1, u - 1) for u, v in g.edges if u != v)
        assert list(zip(rows.tolist(), cols.tolist())) == pairs

    @given(digraphs(max_n=6), st.integers(0, 9999))
    def test_magnitudes_stay_in_band(self, g: DiGraph, seed: int):
        a = sample_matrix(g, np.random.default_rng(seed), DIAG_MIXED)
        nz = np.abs(a[a != 0])
        assert nz.size == 0 or (nz.min() >= 0.1 and nz.max() <= 2.0)

    @given(digraphs(max_n=8), st.sampled_from((DIAG_ZERO, DIAG_NONZERO, DIAG_MIXED)),
           st.integers(0, 9999))
    def test_draw_is_written_out_from_one_stream(self, g: DiGraph, mode, seed: int):
        """Pins the stream layout, so a given seed keeps its draws: the same
        bits, signed zeros included."""
        a = sample_matrix(g, np.random.default_rng(seed), mode)
        assert a.tobytes() == drawn_matrix(g, seed, mode).tobytes()


class TestKalmanRank:
    def test_decoupled_identity(self):
        assert krylov_rank(np.eye(2), {1}) == 1

    def test_driven_path(self):
        a = np.array([[0.0, 0.0], [1.3, 0.0]])
        assert krylov_rank(a, {1}) == 2

    def test_ring_samples_reach_full_rank(self, ring6):
        for seed in range(10):
            a = sample_matrix(ring6, np.random.default_rng(seed), DIAG_MIXED)
            assert krylov_rank(a, {1, 2}) == 6

    def test_threshold_on_known_ranks(self):
        # companion chain: rank grows one per node regardless of diagonal
        for n in (2, 4, 6, 8):
            a = np.diag(np.linspace(0.1, 2.0, n - 1), -1)
            assert krylov_rank(a, {1}) == n
            assert krylov_rank(a, {2}) == n - 1


MODES = (DIAG_ZERO, DIAG_NONZERO, DIAG_MIXED)

# Controls {1} on the fork 1 -> 2, 1 -> 3: full rank exactly when the two
# leaves' diagonal entries differ, so zero-diagonal draws are deficient,
# nonzero ones full and mixed ones either.
FORK = DiGraph(3, frozenset({(1, 2), (1, 3)}))


def per_draw_ranks(stack, b):
    return [len(_reachable_basis(a, b)) for a in stack]


class TestSampleStack:
    @given(digraphs(max_n=8), st.lists(st.sampled_from(MODES), max_size=7), st.integers(0, 9999))
    def test_block_equals_consecutive_draws(self, g: DiGraph, modes, seed: int):
        rng = np.random.default_rng(seed)
        stack = _sample_stack(g, np.random.default_rng(seed), modes)
        assert stack.shape == (len(modes), g.n, g.n)
        for a, mode in zip(stack, modes):
            assert np.array_equal(a, sample_matrix(g, rng, mode))

    def test_unknown_mode_rejected(self, ring6):
        with pytest.raises(ValueError, match="diagonal mode"):
            _sample_stack(ring6, np.random.default_rng(0), [DIAG_ZERO, "full"])


class TestKrylovRanks:
    def test_members_of_different_rank_step_together(self):
        """A chain, a decoupled and a zero matrix: the last two run out of
        candidates at the first step while the chain keeps growing."""
        chain = np.diag(np.linspace(0.1, 2.0, 5), -1)
        stack = np.stack([chain, np.eye(6), np.zeros((6, 6)), chain])
        b = input_matrix(6, {1})
        assert list(_krylov_ranks(stack, b)) == [6, 1, 1, 6]
        assert list(_krylov_ranks(stack, input_matrix(6, {2}))) == [5, 1, 1, 5]
        assert list(_krylov_ranks(stack, np.zeros((6, 0)))) == [0] * 4

    def test_empty_stack(self):
        assert _krylov_ranks(np.zeros((0, 3, 3)), input_matrix(3, {1})).shape == (0,)

    @given(digraphs(max_n=12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_single_matrix_staircase(self, g: DiGraph, data):
        """Any control set, empty included, on generic draws with the
        built uncontrollable member placed among them, so some members
        deflate or run out of candidates while others keep growing."""
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1))), label="controls")
        b = np.eye(g.n)[:, [v - 1 for v in sorted(z)]]
        modes = data.draw(st.lists(st.sampled_from(MODES), min_size=1, max_size=6))
        stack = list(_sample_stack(g, np.random.default_rng(data.draw(st.integers(0, 99))), modes))
        white = stalled_white_set(g, z) if z else frozenset(g.nodes)
        if white:
            witness = _uncontrollable_witness(g, white)
            for _ in range(data.draw(st.integers(1, 3), label="witnesses")):
                stack.insert(data.draw(st.integers(0, len(stack)), label="at"), witness)
        stack = np.stack(stack)
        assert list(_krylov_ranks(stack, b)) == per_draw_ranks(stack, b)


class TestTrialRanks:
    def test_one_stream_in_trial_order(self, ring6):
        rng = np.random.default_rng(11)
        b = input_matrix(6, {1})
        stack = [sample_matrix(ring6, rng, MODES[t % 3]) for t in range(10)]
        assert list(_trial_ranks(ring6, b, 10, 11)) == per_draw_ranks(stack, b)

    def test_fork_mixes_full_and_deficient_draws(self):
        ranks = _trial_ranks(FORK, input_matrix(3, {1}), 30, 4)
        assert set(ranks[0::3]) == {2} and set(ranks[1::3]) == {3}
        assert set(ranks[2::3]) == {2, 3}

    @pytest.mark.parametrize("per_block", [1, 2, 7])
    def test_blocks_do_not_change_the_ranks(self, monkeypatch, per_block):
        b = input_matrix(3, {1})
        whole = _trial_ranks(FORK, b, 30, 4)
        monkeypatch.setattr(oracle, "_STACK_BYTES", per_block * 8 * 3 * 3)
        assert np.array_equal(_trial_ranks(FORK, b, 30, 4), whole)

    def test_large_graphs_rank_each_draw_alone(self, monkeypatch, ring6):
        b = input_matrix(6, {3})
        stacked = _trial_ranks(ring6, b, 12, 2)
        monkeypatch.setattr(oracle, "_STACK_MAX_N", 5)
        monkeypatch.setattr(oracle, "_krylov_ranks", None)  # any stacked rank would fail
        assert np.array_equal(_trial_ranks(ring6, b, 12, 2), stacked)


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


CHAIN3 = TimeFunction(ChainSet(((1, 2, 3),)), {1: 1, 2: 2, 3: 3})


def chain3_varying_schedule() -> LtvSchedule:
    """The bundled piecewise worked example, weights drawn as ``oracle
    --ltv`` draws them at seed 0."""
    doc = parse_document((SAMPLES / "chain3.net").read_text())
    breakpoints, per_interval = parse_schedule_file(
        (SAMPLES / "chain3_varying.sched").read_text(), doc
    )
    return schedule_from_edges(doc.time_function, breakpoints, per_interval, seed=0)


def skeleton_schedule(tf: TimeFunction, breakpoints, seed: int) -> LtvSchedule:
    """Every piece the chain skeleton alone: the family's minimal member."""
    return schedule_from_edges(tf, breakpoints, [DiGraph(tf.n)] * (len(breakpoints) - 1), seed)


def member_schedule(tf: TimeFunction, breakpoints, rng: np.random.Generator) -> LtvSchedule:
    """One ``sample_member`` draw per piece, the chain skeleton cut off, and
    weights from a seed drawn from ``rng``.  Each self-loop, and so each
    diagonal entry, is present with probability 1/2, as ``DIAG_MIXED``
    draws it."""
    skeleton = tf.skeleton.rows
    pieces = [
        DiGraph.from_rows(tf.n, [r & ~s for r, s in zip(sample_member(tf, rng).rows, skeleton)])
        for _ in breakpoints[1:]
    ]
    return schedule_from_edges(tf, breakpoints, pieces, seed=int(rng.integers(1 << 32)))


def chain3_skeleton_schedule() -> LtvSchedule:
    return skeleton_schedule(CHAIN3, (0.0, 3.0, 7.0, 10.0), seed=8)


def single_edge_pieces(*edges) -> LtvSchedule:
    """One unit-length piece per edge on three nodes, with that edge alone
    at weight 1."""
    matrices = []
    for u, v in edges:
        matrices.append(np.zeros((3, 3)))
        matrices[-1][v - 1, u - 1] = 1.0
    return LtvSchedule(tuple(map(float, range(len(edges) + 1))), tuple(matrices))


# From node 1, piece one reaches span{e1, e2}; piece two maps e2 to e2 + e3
# and drives only e1, so the span is {e1, e2 + e3}.  Piece one once more
# adds e2, and so e3, which it reaches only through the propagated e2 + e3.
CARRIED = ((1, 2), (2, 3))
PROPAGATED = ((1, 2), (2, 3), (1, 2))


def rk4_reachable_rank(sched: LtvSchedule, controls) -> int:
    """Dimension of the reachable subspace, with every piece's propagator
    integrated by RK4 and its Krylov columns taken as explicit powers."""
    n = sched.n
    b = input_matrix(n, controls)
    span = np.zeros((n, 0))
    bp = sched.breakpoints
    for a, start, stop in zip(sched.matrices, bp, bp[1:]):
        phi = rk4_transition([a], (start, stop))
        powers = [np.linalg.matrix_power(a, k) @ b for k in range(n)]
        span = np.hstack([phi @ span, *powers])
    return int(np.linalg.matrix_rank(span))


class TestRk4Reference:
    @pytest.mark.parametrize("schedule, controls, expected", [
        (chain3_varying_schedule, {1}, 3),
        (chain3_skeleton_schedule, {2}, 2),
        (partial(single_edge_pieces, *CARRIED), {1}, 2),
        (partial(single_edge_pieces, *PROPAGATED), {1}, 3),
    ], ids=["worked-example-from-source", "skeleton-from-middle", "carried-not-grown",
            "propagated"])
    def test_reachable_span_matches_the_gramian_rank(self, schedule, controls, expected):
        """Full on the worked example; deficient on the chain skeleton from
        the middle node, whose source row stays zero.  The last two fail
        when the carried directions are dropped, grown, or not propagated."""
        sched = schedule()
        assert rk4_reachable_rank(sched, controls) == ltv_gramian_rank(sched, controls) == expected


class TestGramian:
    def test_decoupled_node_limits_rank(self):
        sched = LtvSchedule((0.0, 1.0), (np.diag([0.5, -0.3]),))
        assert ltv_gramian_rank(sched, {1}) == 1
        assert ltv_gramian_rank(sched, {1, 2}) == 2

    def test_earlier_reach_is_carried_but_not_grown(self):
        """Multiplying the carried directions by the second matrix would
        wrongly add e3."""
        assert ltv_gramian_rank(single_edge_pieces(*CARRIED), {1}) == 2

    def test_worked_piecewise_example_from_source(self):
        sched = chain3_varying_schedule()
        assert ltv_gramian_rank(sched, {1}) == 3

    def test_worked_piecewise_example_from_middle_node(self):
        """The middle node drives everything on this particular schedule.

        The back-edge toward the source is present on a subinterval, and
        while it is the one-piece system is already controllable from
        node 2 for every admissible weight choice, so the whole-span
        Gramian has full rank.  Only the family-level statement fails for
        a non-source control set; its canonical witness is the chain-only
        schedule, checked below.
        """
        sched = chain3_varying_schedule()
        assert ltv_gramian_rank(sched, {2}) == 3

    def test_chain_only_member_is_deficient_off_source(self):
        sched = chain3_skeleton_schedule()
        assert ltv_gramian_rank(sched, {2}) < 3
        assert ltv_gramian_rank(sched, {3}) < 3
        assert ltv_gramian_rank(sched, {1}) == 3

    @given(timed_partitions(max_n=6), st.data())
    def test_matrices_have_exactly_their_interval_graph_support(self, tf, data):
        """Edge (u, v) of the skeleton plus the piece is present exactly when
        entry (v, u) is nonzero, and a diagonal entry is nonzero exactly at
        a self-loop."""
        optional = [(u, v) for u in range(1, tf.n + 1) for v in mask_nodes(tf.admissible_rows[u])]
        pieces = data.draw(st.lists(
            st.frozensets(st.sampled_from(optional)) if optional else st.just(frozenset()),
            min_size=1, max_size=4,
        ))
        sched = schedule_from_edges(
            tf, range(len(pieces) + 1), [DiGraph(tf.n, p) for p in pieces],
            seed=data.draw(st.integers(0, 9999)),
        )
        for a, piece in zip(sched.matrices, pieces):
            edges = tf.skeleton.edges | piece
            assert {(u + 1, v + 1) for v, u in zip(*np.nonzero(a))} == edges

    def test_matrices_must_be_square_and_one_size(self):
        with pytest.raises(ValueError, match=re.escape("matrix shape (2, 3) does not fit 2")):
            LtvSchedule((0.0, 1.0), (np.zeros((2, 3)),))
        with pytest.raises(ValueError, match=re.escape("matrix shape (3, 3) does not fit 2")):
            LtvSchedule((0.0, 1.0, 2.0), (np.zeros((2, 2)), np.zeros((3, 3))))

    def test_one_matrix_per_interval(self, chain3_tf):
        with pytest.raises(ValueError, match="need one matrix per interval"):
            schedule_from_edges(chain3_tf, (0.0, 1.0, 2.0), [DiGraph(3)])

    def test_inadmissible_and_out_of_range_edges_are_named(self, chain3_tf):
        """A piece is a graph on the family's nodes: an edge outside 1..3
        fails when the piece is built, and inadmissible edges, or a piece
        on other nodes, when the schedule is."""
        for edge in [(3, 4), (0, 1), (2, -1)]:
            with pytest.raises(ValueError, match=re.escape(f"edge {edge} leaves the node range")):
                DiGraph(3, {(2, 1), edge})
        # (2, 1) and (1, 2) are admissible, (1, 3) skips the frontier
        piece = DiGraph(3, {(2, 1), (1, 2), (1, 3)})
        with pytest.raises(oracle.InadmissibleEdgesError,
                           match=re.escape("edges [(1, 3)] are not admissible")):
            schedule_from_edges(chain3_tf, (0.0, 1.0, 2.0), [DiGraph(3, {(2, 1)}), piece])
        with pytest.raises(ValueError, match="a piece on 4 nodes does not fit 3 nodes"):
            schedule_from_edges(chain3_tf, (0.0, 1.0), [DiGraph(4, {(2, 1)})])

    @pytest.mark.parametrize("breakpoints", [
        (0.0, float("nan"), 2.0), (0.0, 1.0, float("inf")), (float("-inf"), 0.0, 1.0),
    ])
    def test_breakpoints_must_be_finite(self, breakpoints):
        with pytest.raises(ValueError, match="finite"):
            LtvSchedule(breakpoints, (np.zeros((2, 2)),) * 2)


# Two chains of unequal length, and chains of one node each, where every
# node is a source.
LAYOUTS = {
    "two-chains": TimeFunction(
        ChainSet(((1, 2, 3), (4, 5))), {1: 1, 4: 1, 2: 2, 5: 3, 3: 4}
    ),
    "single-node-chains": TimeFunction(ChainSet(((1,), (2,))), {1: 1, 2: 1}),
}


def random_breakpoints(rng: np.random.Generator) -> tuple[float, ...]:
    pieces = int(rng.integers(1, 4))
    return tuple(np.cumsum(np.concatenate(([0.0], rng.uniform(0.3, 1.2, pieces)))))


class TestFamilySchedules:
    """The family-level LTV claims on seeded random schedules: every member
    is controllable from the chain sources, and a control set that misses
    a source fails on the family's minimal member, the chain skeleton."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_source_controls_give_full_rank(self, layout):
        tf = LAYOUTS[layout]
        rng = np.random.default_rng(0)
        for _ in range(20):
            sched = member_schedule(tf, random_breakpoints(rng), rng)
            assert ltv_gramian_rank(sched, tf.chains.sources) == tf.n

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_chain_only_schedule_missing_a_source_is_deficient(self, layout):
        """Every other node controlled, and still deficient: the missed
        source has no in-edge and a zero diagonal on the skeleton."""
        tf = LAYOUTS[layout]
        rng = np.random.default_rng(1)
        for _ in range(20):
            sched = skeleton_schedule(tf, random_breakpoints(rng), int(rng.integers(1 << 32)))
            for source in tf.chains.sources:
                assert ltv_gramian_rank(sched, set(tf.chains.nodes) - {source}) < tf.n

    def test_single_chain_sink_control_always_deficient(self, chain3_tf):
        rng = np.random.default_rng(0)
        for trial in range(10):
            sched = skeleton_schedule(chain3_tf, (0.0, 1.0, 2.0), int(rng.integers(1 << 32)))
            assert ltv_gramian_rank(sched, {3}) < 3


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
        sched = member_schedule(tf, (0.0, 1.0), rng)
        assert ltv_gramian_rank(sched, tf.chains.sources) == 24

    @pytest.mark.parametrize("m", [1, 60])
    def test_large_members_reach_full_rank(self, m):
        rng = np.random.default_rng([300, m])
        tf = random_family(300, m, rng)
        report = verify_ssc_numeric(sample_member(tf, rng), tf.chains.sources, trials=3, seed=m)
        assert report.full_rank == 3 and report.consistent
        sched = member_schedule(tf, (0.0, 0.6, 1.5), rng)
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
            assert krylov_rank(a, z) < n
            report = verify_ssc_numeric(g, z, trials=1, seed=checked)
            assert report.consistent and np.array_equal(report.witness, a)
            assert report.witness_rank == krylov_rank(a, z)

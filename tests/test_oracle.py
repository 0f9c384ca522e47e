from __future__ import annotations

import math
import re
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssc_toolkit.documents import parse_document, parse_schedule_file
from ssc_toolkit.forcing import is_zfs, stalled_white_set
from ssc_toolkit.graphs import ChainSet, DiGraph, mask_nodes, reachable_mask
from ssc_toolkit import oracle
from ssc_toolkit.oracle import (
    DIAG_MIXED,
    DIAG_NONZERO,
    DIAG_ZERO,
    LtvSchedule,
    _gramian_rank,
    _krylov_ranks,
    _reachable_basis,
    _schedule_draws,
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
from reference import lockstep_krylov_ranks, naive_reachable, rk4_transition
from test_documents import schedules


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


def stalled_reaching_controls(n: int, rng: np.random.Generator) -> tuple[DiGraph, list[int]]:
    """A random graph on ``n`` nodes and controls that reach every node
    along edges yet stall, so that their draws are ranked and some of
    them come out deficient."""
    while True:
        p = rng.uniform(1.5, 4.0) / n
        edges = np.argwhere(rng.random((n, n)) < p) + 1
        g = DiGraph(n, frozenset(map(tuple, edges.tolist())))
        z = (rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False) + 1).tolist()
        if reachable_mask(g, z) == g.full_mask and stalled_white_set(g, z):
            return g, z


def random_blocks(count: int, rng: np.random.Generator):
    """``count`` blocks of draws on 3 <= n <= 40 nodes, every block with its
    own mix of diagonal modes, each with its input matrix.  A third of
    them stall yet reach every node, with the built deficient member put
    once or twice among their draws, so that those blocks hold draws of
    different rank; a third are chain skeletons with m >= 2 and their
    sources as controls, whose draws deflate together where a chain ends;
    a third are family members with their sources as controls."""
    for index in range(count):
        n = int(rng.integers(3, 41))
        if index % 3 == 0:
            g, z = stalled_reaching_controls(n, rng)
        else:
            tf = random_time_function(random_chain_set(n, int(rng.integers(2, min(n, 8) + 1)), rng), rng)
            g, z = (tf.skeleton if index % 3 == 1 else sample_member(tf, rng)), tf.chains.sources
        modes = [MODES[j] for j in rng.integers(0, 3, int(rng.integers(1, 41)))]
        stack = _sample_stack(g, rng, modes)
        if index % 3 == 0:  # the built deficient member among generic draws
            at = rng.integers(0, len(stack) + 1, int(rng.integers(1, 3)))
            stack = np.insert(stack, at, _uncontrollable_witness(g, stalled_white_set(g, z)), axis=0)
        yield stack, input_matrix(n, z)


def weighted_chains(*lengths: int, diagonal=(0.0,), weights=(1.0,)) -> np.ndarray:
    """Node-disjoint directed paths of the given lengths, one after the
    other, as a matrix: edge weights cycle through ``weights`` and
    diagonal entries through ``diagonal``."""
    n = sum(lengths)
    a = np.diag(np.resize(np.asarray(diagonal, dtype=float), n))
    starts = np.cumsum((0,) + lengths[:-1])
    below = [j for s, length in zip(starts, lengths) for j in range(s, s + length - 1)]
    a[[j + 1 for j in below], below] = np.resize(np.asarray(weights, dtype=float), len(below))
    return a


class TestLockstepPhases:
    """``_krylov_ranks`` against the frozen per-draw loop of
    ``reference.lockstep_krylov_ranks``, bit for bit: the shared basis
    size must never change a rank, wherever a block splits."""

    def test_random_blocks_match_the_per_draw_loop(self):
        mixed = 0
        for stack, b in random_blocks(300, np.random.default_rng(29)):
            want = lockstep_krylov_ranks(stack, b)
            got = _krylov_ranks(stack, b)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            mixed += len(set(want.tolist())) > 1
        assert mixed >= 50  # blocks that split

    def check(self, stack, b, expected):
        stack = np.stack(stack)
        assert list(_krylov_ranks(stack, b)) == expected
        assert list(lockstep_krylov_ranks(stack, b)) == expected

    def test_every_draw_keeps_every_candidate(self):
        stack = [weighted_chains(6, diagonal=d, weights=w) for d, w in [((0,), (1,)), ((-1, 2), (3,))]]
        self.check(stack, input_matrix(6, {1}), [6, 6])

    def test_every_draw_deflates_together_and_the_steps_go_on(self):
        """Chains 1-2 and 3-4-5 from their sources: every draw deflates the
        image of node 2, which ends its chain, then keeps node 5."""
        stack = [weighted_chains(2, 3, diagonal=d, weights=w) for d, w in [((0,), (1,)), ((1, 2), (-0.5, 2))]]
        self.check(stack, input_matrix(5, {1, 3}), [5, 5])

    def test_split_at_the_first_krylov_candidate(self):
        """The chain keeps ``a @ e1`` while the diagonal matrix deflates it."""
        chain, diagonal = weighted_chains(4), np.diag([1.0, 2.0, 3.0, 4.0])
        self.check([chain, diagonal, chain], input_matrix(4, {1}), [4, 1, 4])

    def test_split_at_the_last_step(self):
        """On the fork 1 -> 2, 1 -> 3 from node 1, the last candidate is new
        exactly when the leaves' diagonal entries differ."""
        a = np.zeros((3, 3))
        a[1:, 0] = 1.0
        full = a + np.diag([0.0, 1.0, 2.0])
        self.check([full, a, full, a + np.eye(3)], input_matrix(3, {1}), [3, 2, 3, 2])

    def test_a_draw_with_tol_not_below_one_has_rank_zero(self):
        """A draw with ||a||_1 >= 1 / sqrt(eps) deflates even the unit
        columns of ``b``, so it starts with no rows and the block with one
        basis size per draw, while the other draws keep ``b``'s columns."""
        chain = weighted_chains(5)
        huge = weighted_chains(5, weights=(1e9,))
        self.check([chain, huge, chain], input_matrix(5, {1, 4}), [5, 0, 5])
        self.check([huge, huge], input_matrix(5, {1, 4}), [0, 0])

    def test_identity_columns_stored_ahead_match_the_loop(self):
        """Below that norm, storing ``b``'s columns ahead of the loop gives
        the ranks the loop gives, for every control set of a small graph,
        the empty one included."""
        rng = np.random.default_rng(3)
        g = DiGraph(5, frozenset({(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4), (2, 5)}))
        stack = _sample_stack(g, rng, MODES * 4)
        for size in range(6):
            for z in map(set, combinations(range(1, 6), size)):
                b = input_matrix(5, z) if z else np.zeros((5, 0))
                assert np.array_equal(_krylov_ranks(stack, b), lockstep_krylov_ranks(stack, b))


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

    @given(digraphs(max_n=10), st.data())
    @settings(max_examples=60)
    def test_unreachable_nodes_bound_every_rank(self, g: DiGraph, data):
        """Controls that miss a node along edges get no full-rank trial, and
        no draw of the same stream ranks above the nodes they reach."""
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        report = verify_ssc_numeric(g, z, trials=6, seed=5)
        missed = set(g.nodes) - naive_reachable(g, z)
        assert report.unreachable == missed
        if is_zfs(g, z):
            assert not missed
        if missed:
            assert report.full_rank == 0 and missed <= report.stalled_white
            ranks = _trial_ranks(g, input_matrix(g.n, z), 6, 5)
            assert ranks.max() <= g.n - len(missed)

    def test_unreachable_controls_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(oracle, "_trial_ranks", None)  # any draw would fail
        report = verify_ssc_numeric(FORK, {2}, trials=30, seed=0)
        assert report.unreachable == {1, 3} and report.full_rank == 0
        assert report.consistent and report.witness_rank < 3


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


# From node 2 of the chain 1 -> 2 -> 3 with a self-loop on node 3 in both
# pieces, the reachable subspace is span{e2, e3}: node 1 has no in-edge.
V3_LOOP = DiGraph(3, {(3, 3)})


def lost_carried_case(span: float):
    """Node 1 reaches node 2 over [0, 1]; the second piece only grows both
    by e^(1.5 span) and reaches nothing, so the carried e2 is what gives
    rank 2."""
    first = np.zeros((3, 3))
    first[1, 0] = 1.0
    return LtvSchedule((0.0, 1.0, 1.0 + span), (first, np.diag([1.5, 1.5, 0.0])))


class TestNonFiniteCarriedSubspace:
    """A later piece's ``expm`` can overflow, or underflow to zero, over a
    long span.  The carried subspace is then lost, which is a numerical
    failure, not a rank: a NaN row would count as one more direction."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_overflowed_expm_raises(self, chain3_tf, seed):
        sched = schedule_from_edges(chain3_tf, (0, 1, 1e6), [V3_LOOP, V3_LOOP], seed)
        message = "piece 2 on [1, 1e+06]: carried basis not finite"
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(message)):
            ltv_gramian_rank(sched, {2})

    @pytest.mark.parametrize("stop", [2, 40, 400])
    def test_short_spans_keep_the_true_rank(self, chain3_tf, stop):
        for seed in (0, 1):
            sched = schedule_from_edges(chain3_tf, (0, 1, stop), [V3_LOOP, V3_LOOP], seed)
            assert ltv_gramian_rank(sched, {2}) == 2

    def test_underflow_to_zero_raises(self):
        sched = LtvSchedule((0.0, 1.0, 1001.0), (np.zeros((2, 2)), np.diag([-2.0, -2.0])))
        with pytest.raises(np.linalg.LinAlgError, match=re.escape("piece 2 on [1, 1001]")):
            ltv_gramian_rank(sched, {1})

    @pytest.mark.parametrize("span", [2.0, 400.0])
    def test_a_huge_finite_carried_column_is_kept(self, span):
        """At span 400 the carried e2 is e^600 e2, whose squared norm
        overflows; unscaled, it normalized to zero and was deflated."""
        assert ltv_gramian_rank(lost_carried_case(span), {1}) == 2


def recorded(matrices, drawn: list):
    for a in matrices:
        drawn.append(a)
        yield a


def outcome(rank):
    """The rank, or the numerical failure, a rank call comes to."""
    try:
        return rank()
    except np.linalg.LinAlgError as exc:
        return str(exc)


class TestLazyDraws:
    """``oracle --ltv`` reads the draws of ``_schedule_draws`` through
    ``_gramian_rank``, which stops at full rank: the same rank, and the
    same matrices, as ranking the whole ``schedule_from_edges``."""

    @settings(max_examples=200)
    @given(schedules(), st.data())
    def test_lazy_path_equals_eager(self, case, data):
        doc, breakpoints, edge_lists = case[:3]
        tf, n = doc.time_function, doc.network.n
        pieces = [DiGraph(n, piece) for piece in edge_lists]
        controls = data.draw(st.sets(st.integers(1, n), min_size=1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        eager = schedule_from_edges(tf, breakpoints, pieces, seed)
        drawn = []
        lazy = recorded(_schedule_draws(tf, breakpoints, pieces, seed), drawn)
        bp = eager.breakpoints
        rank = outcome(lambda: _gramian_rank(n, bp, lazy, controls))
        assert rank == outcome(lambda: ltv_gramian_rank(eager, controls))
        assert 1 <= len(drawn) <= len(pieces)
        for a, b in zip(drawn, eager.matrices):
            assert a.tobytes() == b.tobytes()
        if isinstance(rank, str):  # a numerical failure on the last piece drawn
            assert rank.startswith(f"piece {len(drawn)} on ")
        elif len(drawn) < len(pieces):  # stopped early, so at full rank
            head = LtvSchedule(bp[: len(drawn) + 1], eager.matrices[: len(drawn)])
            assert ltv_gramian_rank(head, controls) == n

    def test_pieces_come_from_one_stream_in_piece_order(self, chain3_tf):
        """Piece k's matrix is the k-th interval graph drawn from one
        generator seeded with ``seed``, with the diagonal zeroed off the
        self-loops."""
        pieces = [DiGraph(3, {(3, 3)}), DiGraph(3), DiGraph(3, {(1, 1), (3, 2)})]
        rng = np.random.default_rng(7)
        for a, piece in zip(_schedule_draws(chain3_tf, (0, 1, 2, 3), pieces, 7), pieces):
            g = DiGraph(3, chain3_tf.skeleton.edges | piece.edges)
            want = sample_matrix(g, rng, DIAG_NONZERO)
            loops = [g.has_edge(v, v) for v in (1, 2, 3)]
            np.fill_diagonal(want, np.where(loops, want.diagonal(), 0.0))
            assert a.tobytes() == want.tobytes()

    def test_checks_come_before_the_first_draw(self, chain3_tf, monkeypatch):
        draws = []
        sample = oracle.sample_matrix
        monkeypatch.setattr(oracle, "sample_matrix", lambda *a: draws.append(1) or sample(*a))
        bad = DiGraph(3, {(1, 3)})
        for breakpoints, pieces, message in [
            ((0, 2, 1), [DiGraph(3), bad], "not admissible"),
            ((0, 2, 1), [DiGraph(3), DiGraph(3)], "strictly increasing"),
            ((0, 1, math.inf), [DiGraph(3), DiGraph(3)], "finite"),
            ((0, 1, 2), [DiGraph(3)], "one matrix per interval"),
        ]:
            with pytest.raises(ValueError, match=message):
                _schedule_draws(chain3_tf, breakpoints, pieces, 0)
        assert draws == []


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

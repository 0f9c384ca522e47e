from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ssc_toolkit.forcing import (
    LOWEST_FORCED,
    LOWEST_FORCER,
    ExplicitForces,
    ForceListError,
    NotZfsError,
    TimeFunction,
    _Frontier,
    derived_set,
    enumerate_forcing_schedules,
    forcing_schedule,
    is_zfs,
    schedule_leaves,
    stalled_white_set,
)
from ssc_toolkit.graphs import ChainSet, DiGraph
from ssc_toolkit.robustness import critical_additive_number, critical_subtractive_number
from ssc_toolkit.synthesis import is_ct_constructed, is_perfect, sample_member

from conftest import digraphs, timed_partitions
from reference import (
    all_digraphs,
    minimum_forcing_size,
    naive_derived_set,
    naive_is_zfs,
    nonempty_subsets,
    walked_record,
)


def naive_forces(g: DiGraph, black: set[int]) -> list[tuple[int, int]]:
    """Every currently possible force, by a rescan of the edge set, sorted."""
    out = []
    for w in sorted(black):
        whites = sorted(v for u, v in g.edges if u == w and v != w and v not in black)
        if len(whites) == 1:
            out.append((w, whites[0]))
    return out


def naive_schedule(g: DiGraph, z, policy: str) -> list[tuple[int, int]]:
    black, forces = set(z), []
    while apps := naive_forces(g, black):
        force = apps[0] if policy == LOWEST_FORCER else min(apps, key=lambda e: (e[1], e[0]))
        black.add(force[1])
        forces.append(force)
    return forces


def recursive_enumeration(g: DiGraph, z, limit: int) -> list[tuple[tuple[int, int], ...]]:
    """Depth-first force lists, by plain recursion over rescans."""
    out: list[tuple[tuple[int, int], ...]] = []

    def dfs(black: set[int], forces: list) -> bool:
        apps = naive_forces(g, black)
        if not apps:
            out.append(tuple(forces))
            return len(out) >= limit
        return any(dfs(black | {f[1]}, forces + [f]) for f in apps)

    dfs(set(z), [])
    return out


class TestDerivedSet:
    def test_path_forces_forward(self, path3):
        assert derived_set(path3, {1}) == {1, 2, 3}

    def test_all_black_already(self, path3):
        assert derived_set(path3, {1, 2, 3}) == {1, 2, 3}

    def test_ring_stalls_from_single_control(self, ring6):
        # node 1 sees two white out-neighbors at once, so nothing moves
        assert derived_set(ring6, {1}) == naive_derived_set(ring6, {1}) == {1}

    def test_self_loop_is_ignored(self):
        g = DiGraph(2, frozenset({(1, 1), (1, 2)}))
        assert derived_set(g, {1}) == {1, 2}
        lone = DiGraph(1, frozenset({(1, 1)}))
        assert derived_set(lone, {1}) == {1}

    @given(digraphs(max_n=10), st.data())
    def test_monotone_in_the_start_set(self, g: DiGraph, data):
        s2 = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        s1 = data.draw(st.frozensets(st.sampled_from(sorted(s2)), min_size=1))
        assert derived_set(g, s1) <= derived_set(g, s2)

    def test_agrees_with_naive_oracle_exhaustively(self):
        for n in (1, 2, 3):
            for g in all_digraphs(n):
                for z in nonempty_subsets(g.nodes):
                    assert derived_set(g, z) == naive_derived_set(g, z), (g, z)

    @given(digraphs(max_n=5), st.data())
    def test_agrees_with_naive_oracle_sampled(self, g: DiGraph, data):
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        assert derived_set(g, z) == naive_derived_set(g, z)
        assert is_zfs(g, z) == naive_is_zfs(g, z)

    @given(digraphs(max_n=12), st.data())
    def test_result_is_independent_of_the_order_forces_are_taken(self, g: DiGraph, data):
        # Relabeling the nodes changes the order in which the closure pops
        # its ready forcers; the derived set, mapped back, must not change.
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        perm = data.draw(st.permutations(range(1, g.n + 1)))
        new_id = {v: i + 1 for i, v in enumerate(perm)}
        derived = derived_set(g.relabeled(perm), {new_id[v] for v in z})
        assert {perm[v - 1] for v in derived} == naive_derived_set(g, z)


class TestNotZfsError:
    @given(digraphs(max_n=8), st.data())
    def test_every_precondition_reports_the_stalled_white_set(self, g: DiGraph, data):
        z = data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        stalled = stalled_white_set(g, z)
        assume(stalled)
        assert stalled == set(g.nodes) - naive_derived_set(g, z)
        stall_message = f"forcing stalled with white nodes {sorted(stalled)}"
        controls_message = f"controls {sorted(z)} are not a zero forcing set"
        calls = (
            (forcing_schedule, stall_message),
            (enumerate_forcing_schedules, controls_message),
            (is_perfect, controls_message),
            (critical_additive_number, stall_message),
            (critical_subtractive_number, stall_message),
        )
        for call, message in calls:
            with pytest.raises(NotZfsError) as info:
                call(g, z)
            assert info.value.stalled_white == stalled, call.__name__
            assert str(info.value) == message, call.__name__


class TestIsZfs:
    def test_ring_with_two_adjacent_controls(self, ring6):
        assert is_zfs(ring6, {1, 2})

    def test_minimum_control_sizes_on_worked_graphs(self, ring6, path3):
        assert minimum_forcing_size(ring6) == 2
        assert minimum_forcing_size(path3) == 1
        assert minimum_forcing_size(DiGraph(3)) == 3

    def test_sink_cannot_force_backwards(self, path3):
        assert not is_zfs(path3, {3})

    def test_two_chain_block(self, block_ring4):
        g, _ = block_ring4
        assert is_zfs(g, {1, 2})


class TestForcingSchedule:
    def test_path_has_unique_schedule(self, path3):
        rec = forcing_schedule(path3, {1})
        assert rec.times == {1: 1, 2: 2, 3: 3}
        assert rec.chains.chains == ((1, 2, 3),)
        assert rec.gamma == 3

    def test_ring_explicit_first_variant(self, ring6, ring6_policy):
        rec = forcing_schedule(ring6, {1, 2}, ring6_policy)
        assert rec.times == {1: 1, 2: 1, 6: 2, 3: 3, 4: 4, 5: 5}
        assert sorted(rec.chains.chains) == [(1, 6), (2, 3, 4, 5)]
        assert rec.tmax == {1: 1, 2: 2, 6: 5, 3: 3, 4: 4, 5: 5}

    def test_ring_explicit_second_variant(self, ring6):
        rec = forcing_schedule(ring6, {1, 2}, ExplicitForces(((1, 6), (2, 3), (6, 5), (5, 4))))
        assert rec.times == {1: 1, 2: 1, 6: 2, 3: 3, 5: 4, 4: 5}
        assert sorted(rec.chains.chains) == [(1, 6, 5, 4), (2, 3)]

    def test_explicit_rejects_impossible_force(self, ring6):
        with pytest.raises(ForceListError, match="not possible") as err:
            forcing_schedule(ring6, {1, 2}, ExplicitForces(((2, 3),)))
        assert (err.value.force, err.value.step) == ((2, 3), 1)
        with pytest.raises(ForceListError, match="not possible at step 4") as err:
            forcing_schedule(ring6, {1, 2}, ExplicitForces(((1, 6), (2, 3), (6, 5), (2, 3))))
        assert (err.value.force, err.value.step) == ((2, 3), 4)

    def test_explicit_rejects_short_list(self, ring6):
        with pytest.raises(ForceListError, match="still possible") as err:
            forcing_schedule(ring6, {1, 2}, ExplicitForces(((1, 6),)))
        assert (err.value.force, err.value.step) == (None, 2)

    def test_stall_reports_white_set(self, path3):
        with pytest.raises(NotZfsError) as err:
            forcing_schedule(path3, {2})
        assert err.value.stalled_white == {1}

    def test_isolated_control_gets_singleton_chain(self):
        g = DiGraph(3, frozenset({(1, 2)}))
        rec = forcing_schedule(g, {1, 3})
        assert sorted(rec.chains.chains) == [(1, 2), (3,)]

    @given(digraphs(max_n=8), st.data())
    def test_verdict_is_policy_independent(self, g: DiGraph, data):
        size = data.draw(st.integers(1, min(3, g.n)))
        z = frozenset(data.draw(st.sampled_from(list(combinations(g.nodes, size)))))
        expected = is_zfs(g, z)
        for policy in (LOWEST_FORCER, LOWEST_FORCED):
            try:
                rec = forcing_schedule(g, z, policy)
                succeeded = True
            except NotZfsError:
                succeeded = False
            assert succeeded == expected
            if succeeded:
                assert len(rec.forces) == g.n - len(z)

    @given(digraphs(max_n=8), st.data())
    def test_policies_match_a_naive_rescan(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        for policy in (LOWEST_FORCER, LOWEST_FORCED):
            expect = naive_schedule(g, z, policy)
            if len(expect) < g.n - len(z):
                with pytest.raises(NotZfsError):
                    forcing_schedule(g, z, policy)
            else:
                assert list(forcing_schedule(g, z, policy).forces) == expect

    @given(digraphs(max_n=8), st.data())
    def test_record_chain_invariants(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        if not is_zfs(g, z):
            return
        rec = forcing_schedule(g, z)
        assert rec.chains.m == len(z)
        assert rec.chains.sources == z
        assert rec.chains.nodes == frozenset(g.nodes)
        for c in rec.chains.chains:
            times = [rec.times[v] for v in c]
            assert times == sorted(times) and len(set(times)) == len(times)
        # every successful schedule certifies membership in its own family
        assert is_ct_constructed(g, rec)


class TestEnumerateSchedules:
    def test_path_single_schedule(self, path3):
        assert len(enumerate_forcing_schedules(path3, {1}, limit=10)) == 1

    def test_edgeless_pair_single_empty_schedule(self):
        g = DiGraph(2)
        tfs = enumerate_forcing_schedules(g, {1, 2}, limit=10)
        assert len(tfs) == 1
        assert tfs[0].forces == ()
        assert sorted(tfs[0].chains.chains) == [(1,), (2,)]

    def test_ring_has_at_least_the_four_variants(self, ring6):
        tfs = enumerate_forcing_schedules(ring6, {1, 2})
        pairs = {
            (tuple(sorted(tf.chains.chains)), tuple(sorted(tf.times.items())))
            for tf in tfs
        }
        assert len(pairs) >= 4
        chain_shapes = {p[0] for p in pairs}
        assert ((1, 6), (2, 3, 4, 5)) in chain_shapes
        assert ((1, 6, 5, 4), (2, 3)) in chain_shapes
        assert ((1, 6, 5, 4, 3), (2,)) in chain_shapes
        assert ((1, 6, 5), (2, 3, 4)) in chain_shapes

    @given(digraphs(max_n=6), st.data())
    def test_same_records_in_the_same_order_as_recursion(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        if not is_zfs(g, z):
            return
        limit = data.draw(st.integers(1, 30))
        got = [r.forces for r in enumerate_forcing_schedules(g, z, limit=limit)]
        assert got == recursive_enumeration(g, z, limit)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        n = 3000
        path = DiGraph(n, [(v, v + 1) for v in range(1, n)] + [(v + 1, v) for v in range(1, n)])
        (rec,) = enumerate_forcing_schedules(path, {1}, limit=5)
        assert rec.forces == tuple((v, v + 1) for v in range(1, n))
        assert rec == forcing_schedule(path, {1})

    def test_limit_truncates(self, ring6):
        assert len(enumerate_forcing_schedules(ring6, {1, 2}, limit=3)) == 3

    def test_non_zfs_raises(self, path3):
        with pytest.raises(NotZfsError):
            enumerate_forcing_schedules(path3, {3}, limit=5)

    @given(digraphs(max_n=6), st.data())
    def test_stall_reports_the_derived_set(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        derived = naive_derived_set(g, z)
        if derived == set(g.nodes):
            assert enumerate_forcing_schedules(g, z, limit=1)
            return
        with pytest.raises(NotZfsError) as raised:
            enumerate_forcing_schedules(g, z, limit=1)
        assert str(raised.value) == f"controls {sorted(z)} are not a zero forcing set"
        assert raised.value.stalled_white == set(g.nodes) - derived

    def test_limit_must_be_positive(self, path3):
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_forcing_schedules(path3, {1}, limit=0)

    @given(digraphs(max_n=6), st.data())
    def test_every_schedule_replays(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        if not is_zfs(g, z):
            return
        for rec in enumerate_forcing_schedules(g, z, limit=20):
            replay = forcing_schedule(g, z, ExplicitForces(rec.forces))
            assert replay.times == rec.times


class TestLeaves:
    """The walk yields each complete force list once, depth first, with the
    count of its leading forces that equal the previous list's; the last
    force of a list is listed but never applied."""

    @staticmethod
    def copied(g: DiGraph, z) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        return [(shared, tuple(forces)) for shared, forces in schedule_leaves(g, z)]

    def check_shared_forces(self, g: DiGraph, z) -> None:
        leaves = self.copied(g, z)
        assert leaves[0][0] == 0
        for (_, before), (shared, forces) in zip(leaves, leaves[1:]):
            assert forces[:shared] == before[:shared]
            assert forces[shared] != before[shared]  # so no longer prefix is shared
        assert all(len(forces) == g.n - len(z) for _, forces in leaves)
        assert [forces for _, forces in leaves] == [
            r.forces for r in enumerate_forcing_schedules(g, z)
        ]

    @given(digraphs(max_n=7), st.data())
    def test_shared_forces_equal_the_previous_leafs(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        assume(is_zfs(g, z))
        self.check_shared_forces(g, z)

    def test_shared_forces_on_graphs_with_many_leaves(self, ring6):
        # forcing from both ends of a two-way path interleaves the two fronts
        path7 = DiGraph(7, [(v, v + 1) for v in range(1, 7)] + [(v + 1, v) for v in range(1, 7)])
        self.check_shared_forces(path7, {1, 7})
        self.check_shared_forces(ring6, {1, 2})
        assert [shared for shared, _ in self.copied(ring6, {1, 2})] == [0, 3, 2, 3, 1, 3, 2, 3]

    def test_all_controls_give_one_empty_leaf(self, ring6):
        assert self.copied(ring6, ring6.nodes) == [(0, ())]

    def test_one_white_node_completes_a_leaf_per_ready_forcer_at_the_root(self, monkeypatch):
        # nodes 1..4 all point at node 5, the one white node; 5 points back at 1
        g = DiGraph(5, [(u, 5) for u in range(1, 5)] + [(5, 1)])
        applied = []
        monkeypatch.setattr(_Frontier, "apply", lambda self, force: applied.append(force))
        assert self.copied(g, {1, 2, 3, 4}) == [(0, ((u, 5),)) for u in range(1, 5)]
        assert applied == []

    def test_last_force_is_listed_but_not_applied(self, monkeypatch, path3):
        applied = []
        apply = _Frontier.apply
        monkeypatch.setattr(
            _Frontier, "apply", lambda self, force: applied.append(force) or apply(self, force)
        )
        assert self.copied(path3, {1}) == [(0, ((1, 2), (2, 3)))]
        assert applied == [(1, 2)]

    @pytest.mark.parametrize("edges, controls, stalled", [
        ([(1, 2), (2, 3)], {3}, {1, 2}),  # nothing to force from the root
        ([(1, 2), (2, 3), (3, 4), (3, 5)], {1}, {4, 5}),  # a stall after two forces
    ])
    def test_a_stalled_control_set_raises_at_the_first_leaf(self, edges, controls, stalled):
        g = DiGraph(max(map(max, edges)), edges)
        with pytest.raises(NotZfsError) as raised:
            next(schedule_leaves(g, controls))
        assert raised.value.stalled_white == stalled
        assert str(raised.value) == f"controls {sorted(controls)} are not a zero forcing set"


class TestScheduleTimeFunctions:
    """A schedule returns its time function, which keeps the force list the
    schedule ran; the list and the time function determine each other."""

    @given(digraphs(max_n=7), st.data())
    def test_every_schedule_matches_the_walked_force_list(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        assume(is_zfs(g, z))
        tfs = enumerate_forcing_schedules(g, z, limit=data.draw(st.integers(1, 40)))
        tfs += [forcing_schedule(g, z, policy) for policy in (LOWEST_FORCER, LOWEST_FORCED)]
        for tf in tfs:
            assert isinstance(tf, TimeFunction)
            times, chains, gamma = walked_record(g.n, z, tf.forces)
            assert tf.times == times
            assert tf.chains.chains == chains
            assert tf.gamma == gamma
            assert tf.chains.sources == z
            # the kept list is the one the chains and times give
            assert tf.forces == TimeFunction(tf.chains, tf.times).forces
            assert forcing_schedule(g, z, ExplicitForces(tf.forces)) == tf

    @given(digraphs(max_n=7), st.data())
    def test_enumerated_time_functions_are_distinct(self, g: DiGraph, data):
        z = frozenset(
            data.draw(st.frozensets(st.sampled_from(range(1, g.n + 1)), min_size=1))
        )
        assume(is_zfs(g, z))
        tfs = enumerate_forcing_schedules(g, z, limit=data.draw(st.integers(1, 40)))
        assert not [(a, b) for a, b in combinations(tfs, 2) if a == b]

    def test_schedules_differ_with_their_forces(self, ring6):
        first, second = enumerate_forcing_schedules(ring6, {1, 2}, limit=2)
        assert first != second and first.chains.sources == second.chains.sources
        replay = forcing_schedule(ring6, {1, 2}, ExplicitForces(first.forces))
        assert replay == first and replay != second

    def test_chain_order_is_not_compared(self, ring6):
        tf = forcing_schedule(ring6, {1, 2})
        flipped = TimeFunction(ChainSet(tf.chains.chains[::-1]), tf.times)
        assert flipped == tf and flipped.chains != tf.chains

    @given(timed_partitions(max_n=8), st.integers(0, 2**32 - 1))
    def test_a_family_replays_its_own_forces_on_every_member(self, tf: TimeFunction, seed: int):
        member = sample_member(tf, np.random.default_rng(seed))
        assert forcing_schedule(member, tf.chains.sources, ExplicitForces(tf.forces)) == tf

"""The color-change rule, derived sets, and forcing schedules.

A black node with exactly one white out-neighbor forces that neighbor
black.  A control set whose repeated forcing blackens the whole graph
certifies strong structural controllability of the network, so the
functions here are the combinatorial SSC test.

One worklist engine, :class:`_Frontier`, backs every single-graph
verdict: derived sets and the ZFS test drain it in any order, schedules
pick from it by policy, and the enumeration walks it depth first with
undo.  A force costs about one bit operation per in-edge of the forced
node, so a whole closure costs about one bit operation per edge.

The depth-first walk is one stream of leaves, each the walk's one force
list with the count of leading forces it shares with the leaf before,
so a writer need only rewrite the rest.  Once one white node is left,
each ready forcer forces it and completes a list: that last force is
listed but never applied.

Self-loops never participate: a node is not its own out-neighbor for
forcing purposes, which keeps every verdict invariant under adding or
removing self-loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Union

from .graphs import ChainSet, DiGraph, Edge, control_set, mask_nodes

LOWEST_FORCER = "lowest-forcer"
LOWEST_FORCED = "lowest-forced"


@dataclass(frozen=True)
class ExplicitForces:
    """Replay policy: perform exactly this chronological list of forces."""

    forces: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "forces", tuple((int(u), int(v)) for u, v in self.forces))


TieBreakPolicy = Union[str, ExplicitForces]


class NotZfsError(ValueError):
    """The forcing process stalled before every node turned black."""

    def __init__(self, message: str, stalled_white: frozenset[int] = frozenset()):
        super().__init__(message)
        self.stalled_white = stalled_white


class ForceListError(ValueError):
    """An explicit force list that the forcing rule does not allow: ``force``,
    listed for ``step`` (1 for the first), is not possible then, or is None
    when the list ends at ``step`` while forces are still possible."""

    def __init__(self, force: Edge | None, step: int):
        self.force, self.step = force, step
        super().__init__(
            f"force {force} is not possible at step {step}" if force is not None
            else "explicit force list ends while forces are still possible"
        )


def _mask_of(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << (v - 1)
    return m


def _nodes_of(mask: int) -> frozenset[int]:
    return frozenset(mask_nodes(mask))


@dataclass(frozen=True)
class ForcingRecord:
    """One complete run of the one-force-per-step schedule.

    A record holds only its chronological ``forces``, the ``controls`` and
    ``gamma``; its times and chains are derived from them on first use.
    ``times`` maps each node to the step at which it turned black
    (controls at step 1, force ``k`` colors its target at step ``k+1``).
    ``chains`` are the maximal forcing chains: node-disjoint paths, one
    per control node, jointly covering the graph.  Controls that never
    force yield one-node chains.
    """

    forces: tuple[Edge, ...]
    controls: frozenset[int]
    gamma: int

    @cached_property
    def times(self) -> dict[int, int]:
        times = dict.fromkeys(self.controls, 1)
        for k, (_, u) in enumerate(self.forces, 2):
            times[u] = k
        return times

    @cached_property
    def chains(self) -> ChainSet:
        successor = dict(self.forces)
        chains = []
        for s in sorted(self.controls):
            nodes = [s]
            while nodes[-1] in successor:
                nodes.append(successor[nodes[-1]])
            chains.append(nodes)
        return ChainSet(tuple(chains))


class _Frontier:
    """Black set, white out-neighbor masks and ready forcers, kept across forces.

    This is the package's one forcing engine.  ``white[u]``, kept for black
    nodes only, is u's out-neighbor row (self-loops dropped) minus the
    black nodes; ``ready`` is the mask of the black nodes with exactly one
    white out-neighbor, i.e. the forcers of the currently possible forces,
    so its set bits list them in forcer order.  A force (or its undo) flips
    one bit in the white mask of each black in-neighbor of the forced node
    and re-rates that forcer, so it costs about one bit operation per
    in-edge, and listing the possible forces costs only the ready forcers.
    """

    def __init__(self, g: DiGraph, black: Iterable[int]):
        self._out = g.force_masks
        self._in = g.in_masks
        self.black = _mask_of(black)
        self.white = [0] * (g.n + 1)
        self.ready = 0
        for u in mask_nodes(self.black):
            self._blacken(u)

    def _blacken(self, u: int) -> None:
        self.white[u] = w = self._out[u] & ~self.black
        if w and not w & (w - 1):  # exactly one white out-neighbor
            self.ready |= 1 << (u - 1)

    def force_of(self, w: int) -> Edge:
        """The force of the ready forcer ``w``."""
        return (w, self.white[w].bit_length())

    def is_applicable(self, force: Edge) -> bool:
        w, u = force
        if not (1 <= w and 1 <= u and self.ready >> (w - 1) & 1):
            return False
        return self.white[w] == 1 << (u - 1)

    def apply(self, force: Edge) -> None:
        u = force[1]
        self._recolor(u)
        self.black |= 1 << (u - 1)
        self._blacken(u)

    def undo(self, force: Edge) -> None:
        u = force[1]
        bit = 1 << (u - 1)
        self.black &= ~bit
        self.ready &= ~bit
        self._recolor(u)

    def _recolor(self, u: int) -> None:
        """Flip u's bit in the white masks of u's black in-neighbors, as u
        changes color, and re-rate those forcers."""
        bit = 1 << (u - 1)
        white, ready = self.white, self.ready
        black_in = self._in[u] & self.black
        while black_in:
            low = black_in & -black_in
            black_in ^= low
            p = low.bit_length()
            w = white[p] = white[p] ^ bit
            if w and not w & (w - 1):
                ready |= low
            elif ready & low:  # cheaper than a clear when p is not ready
                ready ^= low
        self.ready = ready


def _drain(g: DiGraph, z: frozenset[int]) -> int:
    """The black mask once forcing from ``z`` stops.  The derived set does not
    depend on the order of the forces, so the lowest ready forcer goes first."""
    state = _Frontier(g, z)
    apply, force_of = state.apply, state.force_of
    while ready := state.ready:
        apply(force_of((ready & -ready).bit_length()))
    return state.black


def _require_all_black(g: DiGraph, black: int, controls: frozenset[int] | None = None) -> None:
    """Raise :class:`NotZfsError` unless ``black`` covers every node of ``g``;
    the message names ``controls`` when given, else the stalled white nodes."""
    if black != g.full_mask:
        stalled = _nodes_of(g.full_mask & ~black)
        if controls is None:
            raise NotZfsError(f"forcing stalled with white nodes {sorted(stalled)}", stalled)
        raise NotZfsError(f"controls {sorted(controls)} are not a zero forcing set", stalled)


def derived_set(g: DiGraph, controls: Iterable[int]) -> frozenset[int]:
    """The final black set reached from ``controls`` under repeated forcing."""
    return _nodes_of(_drain(g, control_set(controls, g.n)))


def stalled_white_set(g: DiGraph, controls: Iterable[int]) -> frozenset[int]:
    """The white nodes left when forcing from ``controls`` stops."""
    return _nodes_of(g.full_mask & ~_drain(g, control_set(controls, g.n)))


def is_zfs(g: DiGraph, controls: Iterable[int]) -> bool:
    """True iff ``controls`` force the whole graph black.

    This is the strong-structural-controllability verdict for the LTI
    network on ``g`` with inputs at ``controls``.
    """
    return _drain(g, control_set(controls, g.n)) == g.full_mask


def schedule_gamma(g: DiGraph, z: frozenset[int]) -> int:
    """The step count of every complete schedule from the control set ``z``:
    the controls' step, then one step per white node."""
    return g.n - len(z) + 1


def _build_record(g: DiGraph, z: frozenset[int], forces: list[Edge]) -> ForcingRecord:
    return ForcingRecord(tuple(forces), z, schedule_gamma(g, z))


def forcing_schedule(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> ForcingRecord:
    """Run the one-force-per-step schedule under ``policy``.

    Built-in policies pick, among the currently possible forces, the one
    with the lowest forcer id (ties on the forced id) or the lowest
    forced id (ties on the forcer id).  An :class:`ExplicitForces` policy
    replays its list verbatim and fails loudly if any entry is not
    possible at its turn or if forces remain possible afterwards.

    Raises:
        NotZfsError: the process stalls with white nodes remaining.
        ForceListError: an explicit force list is invalid.
    """
    z = control_set(controls, g.n)
    state = _Frontier(g, z)
    forces: list[Edge] = []

    if isinstance(policy, ExplicitForces):
        for step, force in enumerate(policy.forces, 1):
            if not state.is_applicable(force):
                raise ForceListError(force, step)
            state.apply(force)
            forces.append(force)
        if state.ready:
            raise ForceListError(None, len(forces) + 1)
    elif policy in (LOWEST_FORCER, LOWEST_FORCED):
        while state.ready:
            if policy == LOWEST_FORCED:
                forces_now = map(state.force_of, mask_nodes(state.ready))
                choice = min(forces_now, key=lambda e: (e[1], e[0]))
            else:
                choice = state.force_of((state.ready & -state.ready).bit_length())
            state.apply(choice)
            forces.append(choice)
    else:
        raise ValueError(f"unknown tie-break policy {policy!r}")

    _require_all_black(g, state.black)
    return _build_record(g, z, forces)


def schedule_leaves(
    g: DiGraph, controls: Iterable[int]
) -> Iterator[tuple[int, list[Edge]]]:
    """Depth-first walk of every distinct chronological force list from
    ``controls``, the stream :func:`enumerate_forcing_schedules` collects.

    Yields ``(shared, forces)`` per complete list, where the first ``shared``
    forces equal the previous list's (0 for the first).  ``forces`` is one
    list that the walk edits in place, so a caller copies what it keeps.

    The walk keeps an explicit stack of the forcers still to try at each
    depth, so its depth (one level per force) is not bounded by the
    interpreter's recursion limit.  Derived sets do not depend on the order
    of the forces, so every list ends on the same black set: the first
    stall raises, and otherwise every list forces all ``n - |controls|`` white
    nodes.  Once one white node is left, each ready forcer, lowest first,
    forces it and so completes a list; that last force is listed but never
    applied.

    Raises:
        NotZfsError: ``controls`` is not a zero forcing set.
    """
    z = control_set(controls, g.n)
    state = _Frontier(g, z)
    forces: list[Edge] = []
    if not state.ready:  # the controls force nothing
        _require_all_black(g, state.black, z)
        yield 0, forces
        return
    need = g.n - len(z)  # the length of every complete list
    apply, undo, force_of = state.apply, state.undo, state.force_of
    pending = [state.ready]  # per depth, the mask of the forcers still to try
    shared = 0
    while pending:
        rest = pending[-1]
        if not rest:
            pending.pop()
            if forces:
                undo(forces.pop())
                shared = len(forces)
            continue
        low = rest & -rest
        pending[-1] = rest ^ low
        force = force_of(low.bit_length())
        forces.append(force)
        if len(forces) == need:  # it forces the last white node
            yield shared, forces
            forces.pop()
            shared = need - 1
            continue
        apply(force)
        if not state.ready:  # a stall with white nodes left: this raises
            _require_all_black(g, state.black, z)
        pending.append(state.ready)


def enumerate_forcing_schedules(
    g: DiGraph, controls: Iterable[int], limit: int | None = None
) -> list[ForcingRecord]:
    """Depth-first enumeration of every distinct chronological force list.

    Distinct lists may induce identical chains and times; callers filter
    when they care about (chains, times) pairs only.  With ``limit`` the
    search stops after that many records.

    Raises:
        NotZfsError: ``controls`` is not a zero forcing set.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    z = control_set(controls, g.n)
    return [_build_record(g, z, forces) for _, forces in islice(schedule_leaves(g, z), limit)]

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

Self-loops never participate: a node is not its own out-neighbor for
forcing purposes, which keeps every verdict invariant under adding or
removing self-loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .graphs import Chain, ChainSet, DiGraph, Edge, control_set, mask_nodes

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

    ``times`` maps each node to the step at which it turned black
    (controls at step 1, force ``k`` colors its target at step ``k+1``).
    ``chains`` are the maximal forcing chains: node-disjoint paths, one
    per control node, jointly covering the graph.  Controls that never
    force yield one-node chains.
    """

    forces: tuple[Edge, ...]
    times: dict[int, int]
    chains: ChainSet
    gamma: int

    @property
    def controls(self) -> frozenset[int]:
        return self.chains.sources


class _Frontier:
    """Black set, white out-neighbor masks and ready forcers, kept across forces.

    This is the package's one forcing engine.  ``white[u]``, kept for black
    nodes only, is u's out-neighbor row (self-loops dropped) minus the
    black nodes; ``ready`` holds the black nodes with exactly one white
    out-neighbor, i.e. the forcers of the currently possible forces.  A
    force (or its undo) flips one bit in the white mask of each black
    in-neighbor of the forced node and re-rates that forcer, so it costs
    about one bit operation per in-edge, and listing the possible forces
    costs only the ready forcers.
    """

    def __init__(self, g: DiGraph, black: Iterable[int]):
        self._out = g.force_masks
        self._in = g.in_masks
        self.black = _mask_of(black)
        self.white = [0] * (g.n + 1)
        self.ready: set[int] = set()
        for u in mask_nodes(self.black):
            self._blacken(u)

    def _blacken(self, u: int) -> None:
        self.white[u] = w = self._out[u] & ~self.black
        if w and not w & (w - 1):  # exactly one white out-neighbor
            self.ready.add(u)

    def applicable(self) -> list[Edge]:
        """All currently possible forces, sorted by (forcer, forced)."""
        return [(w, self.white[w].bit_length()) for w in sorted(self.ready)]

    def is_applicable(self, force: Edge) -> bool:
        w, u = force
        return w in self.ready and u >= 1 and self.white[w] == 1 << (u - 1)

    def apply(self, force: Edge) -> None:
        u = force[1]
        self._recolor(u)
        self.black |= 1 << (u - 1)
        self._blacken(u)

    def undo(self, force: Edge) -> None:
        u = force[1]
        self.black &= ~(1 << (u - 1))
        self.ready.discard(u)
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
                ready.add(p)
            else:
                ready.discard(p)


def _drain(g: DiGraph, z: frozenset[int]) -> int:
    """The black mask once forcing from ``z`` stops.  The derived set does not
    depend on the order of the forces, so ready forcers pop in any order."""
    state = _Frontier(g, z)
    ready, white, apply = state.ready, state.white, state.apply
    while ready:
        w = ready.pop()
        apply((w, white[w].bit_length()))
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


def _build_record(g: DiGraph, z: frozenset[int], forces: list[Edge]) -> ForcingRecord:
    times = {v: 1 for v in z}
    successor: dict[int, int] = {}
    for k, (w, u) in enumerate(forces):
        times[u] = k + 2
        successor[w] = u
    chains = []
    for s in sorted(z):
        nodes = [s]
        while nodes[-1] in successor:
            nodes.append(successor[nodes[-1]])
        chains.append(Chain(tuple(nodes)))
    return ForcingRecord(
        forces=tuple(forces),
        times=times,
        chains=ChainSet(tuple(chains)),
        gamma=g.n - len(z) + 1,
    )


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
        ValueError: an explicit force list is invalid.
    """
    z = control_set(controls, g.n)
    state = _Frontier(g, z)
    forces: list[Edge] = []

    if isinstance(policy, ExplicitForces):
        for step, force in enumerate(policy.forces):
            if not state.is_applicable(force):
                raise ValueError(f"force {force} is not possible at step {step + 1}")
            state.apply(force)
            forces.append(force)
        if state.ready:
            raise ValueError("explicit force list ends while forces are still possible")
    elif policy in (LOWEST_FORCER, LOWEST_FORCED):
        while state.ready:
            if policy == LOWEST_FORCED:
                choice = min(state.applicable(), key=lambda e: (e[1], e[0]))
            else:
                w = min(state.ready)
                choice = (w, state.white[w].bit_length())
            state.apply(choice)
            forces.append(choice)
    else:
        raise ValueError(f"unknown tie-break policy {policy!r}")

    _require_all_black(g, state.black)
    return _build_record(g, z, forces)


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
    # The search keeps an explicit stack of the forces still to try at each
    # depth, so its depth (one level per force) is not bounded by the
    # interpreter's recursion limit.  Derived sets do not depend on the
    # order of the forces, so every leaf ends on the same black set: the
    # whole graph, or else the stalled derived set the first leaf reports.
    state = _Frontier(g, z)
    forces: list[Edge] = []
    if not state.ready:  # the controls force nothing
        _require_all_black(g, state.black, z)
        return [_build_record(g, z, forces)]
    pending = [iter(state.applicable())]
    records: list[ForcingRecord] = []
    while pending:
        force = next(pending[-1], None)
        if force is None:
            pending.pop()
            if forces:
                state.undo(forces.pop())
            continue
        state.apply(force)
        forces.append(force)
        if state.ready:
            pending.append(iter(state.applicable()))
            continue
        if not records:
            _require_all_black(g, state.black, z)
        records.append(_build_record(g, z, forces))
        if limit is not None and len(records) >= limit:
            break
        state.undo(forces.pop())
    return records

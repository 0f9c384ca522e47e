"""The color-change rule, derived sets, and forcing schedules.

A black node with exactly one white out-neighbor forces that neighbor
black.  A control set whose repeated forcing blackens the whole graph
certifies strong structural controllability of the network, so the
functions here are the combinatorial SSC test.

A complete schedule is one :class:`TimeFunction`: its forcing chains and
the step at which each node turns black, which also give its force list.
The perfect graph, both critical edge-sets and the network-of-networks
layouts are all built from it.

One worklist engine, :class:`_Frontier`, backs every single-graph
verdict: derived sets and the ZFS test drain it in any order, schedules
pick from it by policy, and the enumeration walks it depth first with
undo.  A force costs about one bit operation per in-edge of the forced
node, so a whole closure costs about one bit operation per edge.

The depth-first walk is one stream of leaves, each the walk's one force
list with the count of leading forces it shares with the leaf before and
its tail, so a writer need only rewrite the rest.  The walk moves the frontier
only while more than ``_TAIL`` nodes are white.  Below that, a state is
its white set W, and the forcers there, the black nodes with exactly one
out-neighbor in W, are built once per W from W's in-neighbors and kept
for the rest of the walk: the last levels of a walk pass through few
distinct white sets, and at most ``_TAIL`` per list are new.  So the
walk goes below each (white set, forcer) pair at the hand-off depth once,
records the leaves there, and replays the record on every later visit.

Self-loops never participate: a node is not its own out-neighbor for
forcing purposes, which keeps every verdict invariant under adding or
removing self-loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Mapping, Union

from .graphs import ChainSet, DiGraph, Edge, control_set, mask_nodes, node_mask

LOWEST_FORCER = "lowest-forcer"
LOWEST_FORCED = "lowest-forced"

# The schedule walk keys a state by its white set once at most this many
# nodes are white: the value where a measured sweep flattened out.
_TAIL = 5


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


@dataclass(frozen=True, eq=False)
class TimeFunction:
    """Per-node forcing times bound to a chain partition: a forcing schedule.

    ``times`` maps every chain node to an integer in ``[1, gamma]`` with
    ``gamma = n - m + 1``.  The latest step at which a node is still the
    frontier of its chain (``tmax``) is always derived, never stored:
    sinks get ``gamma``, every other node gets its successor's time minus
    one.

    A complete force list and its time function determine each other: the
    node with time k + 1 is the k-th node forced, by its chain predecessor.
    So :attr:`forces` is the chain edges in the order their targets turn
    black, and a schedule keeps the list it ran.  Equal time functions give
    every node the same time and chain successor; chain order is not compared.

    Construction checks that the chain nodes are exactly ``1..n`` (the
    :class:`ChainSet` is disjoint already), the times cover exactly the
    chain nodes, sources sit at time 1, non-source times are pairwise
    distinct within ``[2, gamma]``, and times strictly increase along
    every chain.

    Raises:
        ValueError: the pair is not a valid time function; the message
            lists every problem found.
    """

    chains: ChainSet
    times: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "times", dict(self.times))
        problems = self._problems()
        if problems:
            raise ValueError("invalid time function: " + "; ".join(problems))

    def __eq__(self, other):
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return self.times == other.times and self.chains.successor == other.chains.successor

    def _problems(self) -> list[str]:
        cs, times = self.chains, self.times
        if cs.nodes != frozenset(range(1, self.n + 1)):
            return [f"chain nodes must be exactly 1..{self.n}"]
        if times.keys() != cs.nodes:
            return ["times must be defined on exactly the chain nodes"]
        problems: list[str] = []
        for s in sorted(cs.sources):
            if times[s] != 1:
                problems.append(f"source {s} has time {times[s]}, expected 1")
        gamma = self.gamma
        seen: dict[int, int] = {}
        for v in sorted(cs.nodes - cs.sources):
            t = times[v]
            if not 2 <= t <= gamma:
                problems.append(f"non-source {v} has time {t} outside [2, {gamma}]")
            elif t in seen:
                problems.append(f"nodes {seen[t]} and {v} share non-source time {t}")
            else:
                seen[t] = v
        for u, v in cs.successor.items():
            if times[u] >= times[v]:
                problems.append(
                    f"chain times must increase: t({u})={times[u]} >= t({v})={times[v]}"
                )
        return problems

    @property
    def n(self) -> int:
        return self.chains.node_count

    @property
    def m(self) -> int:
        return self.chains.m

    @property
    def gamma(self) -> int:
        return self.n - self.m + 1

    @cached_property
    def forces(self) -> tuple[Edge, ...]:
        """The chain edges in the order their targets turn black."""
        t = self.times
        return tuple(sorted(self.chains.successor.items(), key=lambda force: t[force[1]]))

    @cached_property
    def tmax(self) -> dict[int, int]:
        nxt = self.chains.successor
        out = {}
        for v in self.times:
            out[v] = self.times[nxt[v]] - 1 if v in nxt else self.gamma
        return out

    @cached_property
    def skeleton(self) -> DiGraph:
        """The chain edges as a graph on ``1..n``: the family's smallest member."""
        return DiGraph(self.n, self.chains.successor.items())

    @cached_property
    def admissible_rows(self) -> tuple[int, ...]:
        """Row ``u`` holds the nodes ``v`` with ``tmax(u) >= t(v)`` as a
        bitmask, as :attr:`DiGraph.rows` hold out-neighbors.

        In time order those targets are a prefix of the nodes, so one pass
        over the time order builds every row.  The time function is valid,
        so every ``tmax`` value is some node's time.
        """
        t = self.times
        upto: dict[int, int] = {}  # time T -> the nodes with t(v) <= T
        mask = 0
        for v in sorted(t, key=t.__getitem__):
            mask |= 1 << (v - 1)
            upto[t[v]] = mask
        rows = [0] * (self.n + 1)
        for u, T in self.tmax.items():
            rows[u] = upto[T]
        return tuple(rows)

    @cached_property
    def member_rows(self) -> tuple[int, ...]:
        """Rows of the maximal member: every admissible pair plus the chain edges."""
        return tuple(a | s for a, s in zip(self.admissible_rows, self.skeleton.rows))


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
        self.black = node_mask(black)
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

    def forcers(self, white: int) -> int:
        """The ready forcers of the state whose white set is ``white``, as a
        mask, whatever this frontier's own state: the nodes outside ``white``
        that are in exactly one of its nodes' in-neighbor masks, so that have
        exactly one out-neighbor in it.  A few bit operations per white node."""
        once = twice = 0  # in at least one, and in at least two, of the masks
        rest = white
        while rest:
            into = self._in[(rest & -rest).bit_length()]
            twice |= once & into
            once |= into
            rest &= rest - 1
        return once & ~twice & ~white

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
        stalled = frozenset(mask_nodes(g.full_mask & ~black))
        if controls is None:
            raise NotZfsError(f"forcing stalled with white nodes {sorted(stalled)}", stalled)
        raise NotZfsError(f"controls {sorted(controls)} are not a zero forcing set", stalled)


def derived_set(g: DiGraph, controls: Iterable[int]) -> frozenset[int]:
    """The final black set reached from ``controls`` under repeated forcing."""
    return frozenset(mask_nodes(_drain(g, control_set(controls, g.n))))


def stalled_white_set(g: DiGraph, controls: Iterable[int]) -> frozenset[int]:
    """The white nodes left when forcing from ``controls`` stops."""
    return frozenset(mask_nodes(g.full_mask & ~_drain(g, control_set(controls, g.n))))


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


def _time_function(z: frozenset[int], forces: Iterable[Edge]) -> TimeFunction:
    """The time function of the complete force list ``forces`` from ``z``,
    keeping the list: force k (from 1) blackens its target at step k + 1."""
    forces = tuple(forces)
    times = dict.fromkeys(z, 1)
    for k, (_, u) in enumerate(forces, 2):
        times[u] = k
    successor = dict(forces)
    chains = []
    for s in sorted(z):
        nodes = [s]
        while nodes[-1] in successor:
            nodes.append(successor[nodes[-1]])
        chains.append(nodes)
    tf = TimeFunction(ChainSet(tuple(chains)), times)
    object.__setattr__(tf, "forces", forces)
    return tf


def forcing_schedule(
    g: DiGraph, controls: Iterable[int], policy: TieBreakPolicy = LOWEST_FORCER
) -> TimeFunction:
    """Run the one-force-per-step schedule under ``policy``; its time
    function keeps the forces it ran.

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
    return _time_function(z, forces)


def schedule_leaves(
    g: DiGraph, controls: Iterable[int]
) -> Iterator[tuple[int, list[Edge], tuple[Edge, ...]]]:
    """Depth-first walk of every distinct chronological force list from
    ``controls``, the stream :func:`enumerate_forcing_schedules` collects.

    Yields ``(shared, forces, tail)`` per complete list: the first ``shared``
    forces equal the previous list's (0 for the first), ``forces`` is one list
    that the walk edits in place, so a caller copies what it keeps, and
    ``tail`` is the tuple ``forces[cut:]`` (below), the same object per replay.

    The walk keeps an explicit stack of the forcers still to try at each
    depth, so its depth (one level per force) is not bounded by the
    interpreter's recursion limit.  Derived sets do not depend on the order
    of the forces, so every list ends on the same black set: the first
    stall raises, and otherwise every list forces all ``n - |controls|`` white
    nodes.

    Only the forces that leave more than ``_TAIL`` nodes white are applied
    to the frontier.  Below them a state is its white set W: forcer p forces
    its one out-neighbor in W, and the mask of W's forcers is built once
    (:meth:`_Frontier.forcers`) and kept in a dict for the rest of the walk.
    That dict gains at most ``_TAIL`` entries per list walked, and a walk
    that stops after its first list builds at most ``_TAIL`` masks.

    The hand-off depth ``cut`` is the first force that leaves at most
    ``_TAIL`` nodes white.  The first visit below a (white set, forcer)
    pair there records each leaf's ``forces[cut:]`` and ``shared`` count;
    later visits replay the record, so the stream does not change.  The
    records hold one suffix per list walked, less than a caller that keeps
    every list.  A walk whose tail starts at the root (``cut`` 0) visits no
    pair twice and records nothing.

    Raises:
        NotZfsError: ``controls`` is not a zero forcing set.
    """
    z = control_set(controls, g.n)
    state = _Frontier(g, z)
    forces: list[Edge] = []
    if not state.ready:  # the controls force nothing
        _require_all_black(g, state.black, z)
        yield 0, forces, ()
        return
    need = g.n - len(z)  # the length of every complete list
    cut = max(need - _TAIL - 1, 0)  # how many forces leave more than _TAIL nodes white
    apply, undo, force_of, forcers = state.apply, state.undo, state.force_of, state.forcers
    out, full = g.force_masks, g.full_mask
    memo: dict[int, int] = {}  # white set -> the mask of its forcers
    # (white set, forcer bit) at depth ``cut`` -> (shared, tail) per leaf
    records: dict[tuple[int, int], list[tuple[int, tuple[Edge, ...]]]] = {}
    record = None
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
        if len(forces) < cut:
            force = force_of(low.bit_length())
            forces.append(force)
            apply(force)
            if not state.ready:  # a stall with white nodes left: this raises
                _require_all_black(g, state.black, z)
            pending.append(state.ready)
            continue
        # From this force down, a state is its white set: the frontier stays.
        white = full ^ state.black
        if cut > 0:  # a tail below the root: later prefixes may reach it again
            record = records.get((white, low))
            if record is not None:
                for s, tail in record:
                    forces[cut:] = tail
                    yield s or shared, forces, tail  # the first leaf shares ``shared``
                del forces[cut:]
                shared = cut
                continue
            record = records[white, low] = []
        below = [low]  # as ``pending``, from this depth on
        while below:
            rest = below[-1]
            if not rest:
                below.pop()
                if below:
                    white |= 1 << (forces.pop()[1] - 1)
                    shared = len(forces)
                continue
            below[-1] = rest & (rest - 1)
            p = (rest & -rest).bit_length()
            u = (out[p] & white).bit_length()  # p's one white out-neighbor
            forces.append((p, u))
            white ^= 1 << (u - 1)
            if not white:  # the force blackened the last white node
                yield shared, forces, (tail := tuple(forces[cut:]))
                if record is not None:  # 0 for the record's first leaf
                    record.append((shared if record else 0, tail))
                ready = 0
            elif (ready := memo.get(white)) is None:
                ready = memo[white] = forcers(white)
                if not ready:  # a stall with white nodes left: this raises
                    _require_all_black(g, full ^ white, z)
            below.append(ready)


def enumerate_forcing_schedules(
    g: DiGraph, controls: Iterable[int], limit: int | None = None
) -> list[TimeFunction]:
    """Depth-first enumeration of every distinct chronological force list,
    each as its time function.

    A force list and its time function determine each other, so distinct
    lists give distinct time functions.  With ``limit`` the search stops
    after that many.

    Raises:
        NotZfsError: ``controls`` is not a zero forcing set.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    z = control_set(controls, g.n)
    return [_time_function(z, forces) for _, forces, _ in islice(schedule_leaves(g, z), limit)]

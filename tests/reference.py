"""Independent reference implementations the tests check the library against.

Everything here recomputes results from first principles on top of the
raw edge set, without touching the library's bitmask closure, chain
bookkeeping, or closed-form counts.
"""
from __future__ import annotations

from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np

from ssc_toolkit.graphs import DiGraph


def naive_derived_set(g: DiGraph, start) -> set[int]:
    """Fixed point of the color-change rule by repeated full rescans."""
    black = set(start)
    while True:
        forced = None
        for w in sorted(black):
            whites = sorted(
                v for (u, v) in g.edges if u == w and v != w and v not in black
            )
            if len(whites) == 1:
                forced = whites[0]
                break
        if forced is None:
            return black
        black.add(forced)


def naive_is_zfs(g: DiGraph, start) -> bool:
    return naive_derived_set(g, start) == set(g.nodes)


def naive_reachable(g: DiGraph, start) -> set[int]:
    """The nodes reached from ``start`` along edges, by breadth-first search."""
    seen = set(start)
    queue = list(seen)
    while queue:
        u = queue.pop(0)
        for x, v in sorted(g.edges):
            if x == u and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def swept_derived_set(n: int, edges, start) -> set[int]:
    """Fixed point of the color-change rule on nodes ``1..n`` with the raw
    edge set ``edges``: sweep the nodes in id order, letting every black
    node with exactly one white out-neighbor (self-loops ignored) force
    it, until a sweep forces nothing."""
    out: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        if u != v:
            out[u].add(v)
    black = set(start)
    changed = True
    while changed:
        changed = False
        for w in range(1, n + 1):
            if w in black:
                whites = out[w] - black
                if len(whites) == 1:
                    black |= whites
                    changed = True
    return black


def naive_forces(g: DiGraph, black) -> list[tuple[int, int]]:
    """Every currently possible force, by a rescan of the edge set, sorted."""
    out = []
    for w in sorted(black):
        whites = sorted(v for u, v in g.edges if u == w and v != w and v not in black)
        if len(whites) == 1:
            out.append((w, whites[0]))
    return out


def recursive_enumeration(
    g: DiGraph, z, limit: int | None = None
) -> list[tuple[tuple[int, int], ...]]:
    """Depth-first force lists from ``z``, by plain recursion over rescans:
    the first ``limit`` of them (all when None).  A list that stalls is
    kept too, so on a control set that is not a zero forcing set every
    list is shorter than ``g.n - len(z)``."""
    out: list[tuple[tuple[int, int], ...]] = []

    def dfs(black: set[int], forces: list) -> bool:
        apps = naive_forces(g, black)
        if not apps:
            out.append(tuple(forces))
            return limit is not None and len(out) >= limit
        return any(dfs(black | {f[1]}, forces + [f]) for f in apps)

    dfs(set(z), [])
    return out


def unreplayed_leaves(g: DiGraph, z) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """The forcing-schedule walk without replay: every force list from
    ``z``, depth first with the forcers in ascending order, each with the
    count of leading forces it shares with the list before (0 for the
    first).  Every state's forcers are rescanned from its white set, so
    nothing is looked up, kept or replayed.  Lazy, so a caller can stop at
    a limit.  The library's walk must give this stream, counts included.

    Raises:
        ValueError: forcing stalls; the message lists the white nodes left.
    """
    out = [0] * (g.n + 1)  # out-neighbor masks without self-loops
    for u, v in g.edges:
        if u != v:
            out[u] |= 1 << (v - 1)

    def forcers(white: int) -> list[int]:
        """The black nodes with exactly one out-neighbor in ``white``."""
        black = [p for p in g.nodes if not white >> (p - 1) & 1]
        found = [p for p in black if (out[p] & white).bit_count() == 1]
        if white and not found:
            raise ValueError(f"forcing stalls with white nodes {sorted(set(g.nodes) - set(black))}")
        return found

    white = sum(1 << (v - 1) for v in g.nodes if v not in z)
    pending = [forcers(white)]  # per depth, the forcers still to try
    if not white:
        yield 0, ()
        return
    forces: list[tuple[int, int]] = []
    shared = 0
    while pending:
        if not pending[-1]:
            pending.pop()
            if forces:
                white |= 1 << (forces.pop()[1] - 1)
                shared = len(forces)
            continue
        p = pending[-1].pop(0)
        u = (out[p] & white).bit_length()  # p's one white out-neighbor
        forces.append((p, u))
        white ^= 1 << (u - 1)
        if not white:
            yield shared, tuple(forces)
        pending.append(forcers(white))


def walked_record(n: int, controls, forces):
    """Times, chains and gamma of the schedule that performs ``forces`` in
    order from ``controls`` on ``n`` nodes, walked out of the force list:
    controls turn black at step 1, force k (from 0) colors its target at
    step k + 2, and each chain starts at a control (in id order) and
    follows the forces out of its last node.  Chains are node tuples."""
    times = {v: 1 for v in controls}
    successor = {}
    for k, (w, u) in enumerate(forces):
        times[u] = k + 2
        successor[w] = u
    chains = []
    for s in sorted(controls):
        nodes = [s]
        while nodes[-1] in successor:
            nodes.append(successor[nodes[-1]])
        chains.append(tuple(nodes))
    return times, tuple(chains), n - len(controls) + 1


def walked_intervals(n: int, controls, forces) -> dict[int, tuple[int, int]]:
    """Each node's frontier interval ``(t, tmax)`` in the schedule that
    performs ``forces`` in order from ``controls``: its time from
    :func:`walked_record`, and the step before its chain successor turns
    black, or gamma for the last node of a chain."""
    times, chains, gamma = walked_record(n, controls, forces)
    return {
        v: (times[v], times[after] - 1 if after else gamma)
        for chain in chains
        for v, after in zip(chain, chain[1:] + (0,))
    }


def incremental_schedule_writer(names, machine: bool, gamma: int):
    """The schedule writer that rewrote each list's forces after the ones it
    shares with the list before, and rejoined every interval piece: one
    function of ``(shared, forces[shared:])`` per list, in walk order, to
    the list's ``(forces, intervals)`` texts in ``--format machine`` (JSON
    values) or text.  Kept as the writer was before the interval texts were
    cut at the entries a tail can change, so that writer's output can be
    checked list for list against this one."""
    n = len(names)
    written = ("", *map(encode_basestring_ascii, names)) if machine else ("", *names)
    if machine:
        order = sorted(range(1, n + 1), key=lambda v: names[v - 1])
        colon, mid, sep = ": [", ", ", ", "
        forcer, forced = [f"[{w}, " for w in written], [f"{u}]" for u in written]
    else:
        order, colon, mid, sep = range(1, n + 1), ":[", ",", " "
        forcer, forced = [f"{w}>" for w in written], written
    digits = [str(k) for k in range(gamma + 1)]
    pieces, at = [], [0] * (n + 1)  # node v's t is pieces[at[v]], its tmax pieces[at[v] + 2]
    for v in order:
        at[v] = len(pieces) + 1
        pieces += (written[v] + colon, "1", mid, digits[gamma], "]" + sep)
    pieces[-1] = "]"
    if machine:
        pieces[0], pieces[-1] = "{" + pieces[0], "]}"
    forces: list[tuple[int, int]] = []  # the last list, and its force texts
    listed: list[str] = []

    def write(shared: int, tail) -> tuple[str, str]:
        for w, u in forces[shared:]:
            pieces[at[w] + 2] = digits[gamma]
            pieces[at[u]] = "1"
        for k, (w, u) in enumerate(tail, shared + 1):
            pieces[at[w] + 2] = digits[k]
            pieces[at[u]] = digits[k + 1]
        forces[shared:] = tail
        listed[shared:] = [forcer[w] + forced[u] for w, u in tail]
        joined = sep.join(listed)
        return f"[{joined}]" if machine else joined, "".join(pieces)

    return write


def has_cycle(g: DiGraph) -> bool:
    """Three-color DFS cycle detection."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.nodes}
    adj: dict[int, list[int]] = {v: [] for v in g.nodes}
    for u, v in g.edges:
        adj[u].append(v)

    def visit(u: int) -> bool:
        color[u] = GRAY
        for v in adj[u]:
            if color[v] == GRAY:
                return True
            if color[v] == WHITE and visit(v):
                return True
        color[u] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in g.nodes)


def _largest_safe_sets(candidates, keeps) -> tuple[int, list[frozenset]]:
    """Maximum size of a set of ``candidates`` every subset of which
    ``keeps`` (a predicate on lists of candidates) accepts, plus all
    maximum such sets.

    Subsets are scanned in order of size; one is safe when ``keeps``
    accepts it and every subset one element smaller is safe.
    """
    k = len(candidates)
    keeps = {
        mask: keeps([candidates[i] for i in range(k) if mask >> i & 1])
        for mask in range(1 << k)
    }
    safe = {}
    for mask in sorted(range(1 << k), key=lambda m: bin(m).count("1")):
        ok = keeps[mask]
        m = mask
        while ok and m:
            low = m & -m
            m ^= low
            ok = safe[mask ^ low]
        safe[mask] = ok
    best = max(bin(m).count("1") for m, ok in safe.items() if ok)
    witnesses = [
        frozenset(candidates[i] for i in range(k) if m >> i & 1)
        for m, ok in safe.items()
        if ok and bin(m).count("1") == best
    ]
    return best, witnesses


def brute_force_additive(g: DiGraph, z) -> tuple[int, list[frozenset]]:
    """Maximum size of an edge set whose every subset can be added while
    ``z`` keeps forcing everything, plus all maximum witnesses.

    Exponential in the number of absent edges; call on tiny graphs only.
    """
    candidates = sorted(
        (u, v) for u in g.nodes for v in g.nodes if (u, v) not in g.edges
    )
    return _largest_safe_sets(candidates, lambda extra: naive_is_zfs(g.add_edges(extra), z))


def brute_force_subtractive(g: DiGraph, z) -> tuple[int, list[frozenset]]:
    """Maximum size of an edge set whose every subset can be removed while
    ``z`` keeps forcing everything, plus all maximum witnesses.

    Exponential in the number of edges; call on tiny graphs only.
    """
    return _largest_safe_sets(
        sorted(g.edges), lambda gone: naive_is_zfs(DiGraph(g.n, g.edges - set(gone)), z)
    )


def minimum_forcing_size(g: DiGraph) -> int:
    """Smallest control-set size that forces the whole graph, by scanning
    subsets in increasing size.  Exponential; tiny graphs only."""
    nodes = sorted(g.nodes)
    for r in range(1, g.n + 1):
        for z in combinations(nodes, r):
            if naive_is_zfs(g, z):
                return r
    raise AssertionError("the full node set always forces itself")


def rk4_transition(matrices, breakpoints, steps_per_piece: int = 400) -> np.ndarray:
    """Integrate X' = A(t) X across the pieces with classic RK4."""
    n = matrices[0].shape[0]
    phi = np.eye(n)
    for a, (start, stop) in zip(matrices, zip(breakpoints, breakpoints[1:])):
        h = (stop - start) / steps_per_piece
        for _ in range(steps_per_piece):
            k1 = a @ phi
            k2 = a @ (phi + h / 2 * k1)
            k3 = a @ (phi + h / 2 * k2)
            k4 = a @ (phi + h * k3)
            phi = phi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return phi


def all_digraphs(n: int, max_count: int | None = None, rng=None):
    """Every digraph on n nodes (self-loops included), or a random sample."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    total = 1 << len(pairs)
    if max_count is None or total <= max_count:
        for mask in range(total):
            yield DiGraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
        return
    assert rng is not None
    for mask in rng.integers(0, total, size=max_count, dtype=np.uint64):
        mask = int(mask)
        yield DiGraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))


def nonempty_subsets(items):
    items = sorted(items)
    for r in range(1, len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def line_by_line_document(text: str):
    """Names, edge name pairs and edge id set of a document without CHAINS
    or TIMES, read one line at a time as the format defines it: lines as
    ``str.splitlines`` cuts them, a comment from the first ``#``, tokens as
    ``str.split`` cuts the rest.  Raises the parser's ``DocumentError``
    with the message and line number the format prescribes."""
    from ssc_toolkit.documents import SECTIONS, DocumentError

    sections: dict[str, list] = {}
    body = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) == 1 and tokens[0] in SECTIONS:
            if tokens[0] in sections:
                raise DocumentError(f"duplicate section {tokens[0]}", lineno)
            body = sections[tokens[0]] = []
        elif body is None:
            raise DocumentError(f"content before any section: {' '.join(tokens)}", lineno)
        else:
            body.append((lineno, tokens))
    assert "CHAINS" not in sections and "TIMES" not in sections
    if "NODES" not in sections:
        raise DocumentError("document has no NODES section")
    ids: dict[str, int] = {}
    for lineno, tokens in sections["NODES"]:
        for tok in tokens:
            if tok in SECTIONS:
                raise DocumentError(f"node name {tok!r} collides with a section keyword", lineno)
            if tok in ids:
                raise DocumentError(f"duplicate node name {tok!r}", lineno)
            ids[tok] = len(ids) + 1
    if not ids:
        raise DocumentError("NODES section declares no nodes")
    edges: list[tuple[str, str]] = []
    for lineno, tokens in sections.get("EDGES", []):
        if len(tokens) != 2:
            raise DocumentError("an edge line needs exactly two node names", lineno)
        for tok in tokens:
            if tok not in ids:
                raise DocumentError(f"unknown node name {tok!r}", lineno)
        if tuple(tokens) in edges:
            raise DocumentError(f"duplicate edge {tokens[0]} -> {tokens[1]}", lineno)
        edges.append((tokens[0], tokens[1]))
    seen: set[str] = set()
    for lineno, tokens in sections.get("CONTROLS", []):
        for tok in tokens:
            if tok not in ids:
                raise DocumentError(f"unknown node name {tok!r}", lineno)
            if tok in seen:
                raise DocumentError(f"duplicate control node {tok!r}", lineno)
            seen.add(tok)
    return tuple(ids), tuple(edges), {(ids[a], ids[b]) for a, b in edges}


def lockstep_krylov_ranks(stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Krylov ranks of a stack by the lockstep staircase with a basis size
    per draw at every step: step i takes candidate i of each draw (column
    i of ``b``, then ``a @ q`` for its kept row ``q`` number i - m),
    orthogonalizes it twice against the first ``max(k)`` rows and keeps
    it when its residual norm is above ``sqrt(eps) * max(1, ||a||_1)``.
    The library's loop must give these ranks bit for bit."""
    t, n, _ = stack.shape
    m = b.shape[1]
    tol = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(stack).sum(axis=1).max(axis=1))
    basis = np.zeros((t, n, n))
    k = np.zeros(t, dtype=np.intp)
    for i in range(m + n):
        live = (k < n) & (k > i - m)
        if not live.any():
            break
        if i < m:
            c = np.repeat(b[None, :, i], t, axis=0)
        else:
            c = (stack @ basis[:, i - m, :, None])[..., 0]
        top = k.max()
        if top:
            q = basis[:, :top]
            qt = q.transpose(0, 2, 1)
            c -= (qt @ (q @ c[..., None]))[..., 0]
            c -= (qt @ (q @ c[..., None]))[..., 0]
        r = np.sqrt(np.einsum("ij,ij->i", c, c))
        kept = np.flatnonzero(live & (r > tol))
        basis[kept, k[kept]] = c[kept] / r[kept, None]
        k[kept] += 1
    return k

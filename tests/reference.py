"""Independent reference implementations the tests check the library against.

Everything here recomputes results from first principles on top of the
raw edge set, without touching the library's bitmask closure, chain
bookkeeping, or closed-form counts.
"""
from __future__ import annotations

from itertools import combinations

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


def brute_force_additive(g: DiGraph, z) -> tuple[int, list[frozenset]]:
    """Maximum size of an edge set whose every subset can be added while
    ``z`` keeps forcing everything, plus all maximum witnesses.

    Exponential in the number of absent edges; call on tiny graphs only.
    """
    candidates = sorted(
        (u, v) for u in g.nodes for v in g.nodes if (u, v) not in g.edges
    )
    k = len(candidates)
    keeps = {}
    for mask in range(1 << k):
        extra = [candidates[i] for i in range(k) if mask >> i & 1]
        keeps[mask] = naive_is_zfs(g.add_edges(extra), z)
    additive = {}
    for mask in sorted(range(1 << k), key=lambda m: bin(m).count("1")):
        ok = keeps[mask]
        m = mask
        while ok and m:
            low = m & -m
            m ^= low
            ok = additive[mask ^ low]
        additive[mask] = ok
    best = max(bin(m).count("1") for m, ok in additive.items() if ok)
    witnesses = [
        frozenset(candidates[i] for i in range(k) if m >> i & 1)
        for m, ok in additive.items()
        if ok and bin(m).count("1") == best
    ]
    return best, witnesses


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

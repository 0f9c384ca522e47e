"""Network documents: the line-oriented text format.

A document declares named nodes and directed edges, the control nodes,
and optionally a chain partition with times::

    # anything after '#' is a comment
    NODES
    v1 v2 v3
    EDGES
    v1 v2
    v2 v3
    CONTROLS
    v1
    CHAINS
    v1 v2 v3
    TIMES
    v1 1
    v2 2
    v3 3

Sections may appear in any order; ``NODES`` is mandatory.  Names are
whitespace-free tokens, unique, and everything else must reference them.
Parsing reports the offending line number; emission is canonical, so
``emit(parse(text))`` is a fixed point.

Ids and rows are the storage.  The parser builds the network's
:class:`~ssc_toolkit.graphs.DiGraph` rows as it reads.  It keeps the text
whole: a text with line breaks other than ``\\n`` is first rejoined with
``\\n``, section headers are found by a scan for their keywords, and each
section's body is cut out by offset.  An ``EDGES`` body written as the
writer writes it (``a b`` lines, one space inside, ``\\n`` between) is read
as one token stream once one ``bytes.translate`` has checked its
whitespace.  A large one (``_BULK_EDGES`` edges and ``_BULK_PER_NODE`` per
node) whose node names all have at most 7 bytes is read in bulk: one byte
comparison finds the token bounds, each token becomes one ``uint64`` key
(its bytes and its length), one open-addressing table of the names' keys
gives the node ids, and the edges are set in a boolean matrix a bounded
chunk of rows at a time and packed into the rows.  A smaller body, or one
with a longer name, is cut by one ``str.split`` and a name-to-bit table
sets one bit of the source's row per edge.  Any other body (comments,
blank lines, other whitespace, non-ASCII names, a bad line or a duplicate
edge), and any body either reader declines, is read line by line, which
raises at the first bad line.  Controls, chains and times
are kept on node ids, so a parsed document is canonical: two texts of
the same network parse to equal documents.  :func:`document_chunks`
writes the canonical text straight from rows, one chunk per row, in
plain text or as the inside of a JSON string.  A schedule file is read
the same way: its ``BREAKPOINTS`` and ``INTERVAL`` sections are cut by
offset, and each ``INTERVAL`` body is read like an ``EDGES`` body into
the rows of one graph per piece.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .forcing import ExplicitForces, TimeFunction
from .graphs import _CHUNK_BITS, ChainSet, DiGraph, Edge, row_nodes

SECTIONS = ("NODES", "EDGES", "CONTROLS", "CHAINS", "TIMES")


class DocumentError(ValueError):
    """A malformed document, with the line that broke."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class NetworkDocument:
    """A named network with optional chain/time annotations.

    Node ``v`` is named ``names[v - 1]``; ``network`` holds the edges,
    ``controls`` the control nodes, ``chains`` the chain partition and
    ``times`` each node's time, all on node ids.
    """

    names: tuple[str, ...]
    network: DiGraph
    controls: frozenset[int] = frozenset()
    chains: ChainSet | None = None
    times: dict[int, int] | None = None

    @cached_property
    def node_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names, start=1)}

    def name_of(self, node: int) -> str:
        return self.names[node - 1]

    def graph(self) -> DiGraph:
        """``network``; kept because ``perfbench/spans.py`` traces it by name."""
        return self.network

    @cached_property
    def time_function(self) -> TimeFunction | None:
        """The chains and times as one :class:`TimeFunction`, or None without
        both sections.  It is built, and so checked, once: on first use."""
        if self.chains is None or self.times is None:
            return None
        return TimeFunction(self.chains, self.times)

    @classmethod
    def from_graph(
        cls,
        g: DiGraph,
        names: Sequence[str],
        controls: Iterable[int] = (),
        tf: TimeFunction | None = None,
    ) -> "NetworkDocument":
        if len(names) != g.n:
            raise ValueError(f"{g.n} nodes need {g.n} names, got {len(names)}")
        if tf is None:
            return cls(tuple(names), g, frozenset(controls))
        return cls(tuple(names), g, frozenset(controls), tf.chains, dict(tf.times))


def _content_lines(lines: Sequence[str], first: int = 1):
    """(line number, tokens) of every line with tokens; ``lines[0]`` is line
    ``first`` and everything after a ``#`` is a comment."""
    for lineno, raw in enumerate(lines, start=first):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if tokens:
            yield lineno, tokens


def _cut(text: str, keywords: Sequence[str]) -> tuple[str, list[tuple[int, str, str]]]:
    """A text whose only line break is ``\\n``, cut at its header lines (a
    line holding one of ``keywords`` and nothing else but a comment): the
    text before the first header, and the line number, keyword and body of
    each header in text order.  A body is the lines up to the next header,
    without the line break that ends the last of them.

    Only the lines holding a keyword are split, so the rest of the text
    costs one ``str.find`` scan per keyword and one ``str.count``.
    """
    found: dict[int, tuple[int, str]] = {}  # start of a header line -> its end, keyword
    for keyword in keywords:
        pos = text.find(keyword)
        while pos >= 0:
            start = text.rfind("\n", 0, pos) + 1
            end = text.find("\n", pos)
            end = len(text) if end < 0 else end
            line = text[start:end]
            if line == keyword or line.split("#", 1)[0].split() == [keyword]:
                found[start] = (end, keyword)
            pos = text.find(keyword, end)
    starts = sorted(found)
    stops = [start - 1 for start in starts[1:]]
    stops.append(len(text) - text.endswith("\n"))
    cut = []
    lineno, pos = 1, 0
    for start, stop in zip(starts, stops):
        lineno += text.count("\n", pos, start)
        pos = start
        end, keyword = found[start]
        cut.append((lineno, keyword, text[end + 1 : stop]))
    return text[: starts[0] if starts else len(text)], cut


# Where ``str.splitlines`` ends a line besides ``\n``.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# What ``bytes.translate`` deletes from a body: all but ASCII whitespace and "#".
_NOT_BLANK = bytes(b for b in range(256) if not (b < 128 and chr(b).isspace() or b == ord("#")))


def _single_breaks(text: str) -> str:
    """``text`` with every line break ``str.splitlines`` knows written as ``\\n``."""
    for brk in _OTHER_BREAKS:
        if brk in text:
            return "\n".join(text.splitlines())
    return text


def _canonical_edges(body: str, ids: dict[str, int], bits: dict[str, int]) -> list[int] | None:
    """The rows of an EDGES body of ``a b`` lines, one space inside and
    ``\\n`` between them, or None for a body written any other way or
    failing a check; ``ids`` and ``bits`` map each name to its node and
    its bit.

    The body's whitespace must read ``" \\n"`` per line and ``" "`` for the
    last line.  A body of at least ``_BULK_EDGES`` lines and
    ``_BULK_PER_NODE`` per node, whose node names all have at most 7 bytes,
    is read by :func:`_bulk_rows`.  Any other one must give two names per
    line to one ``str.split``; the names are looked up in one pass, and a
    duplicate edge shows as a bit count short of the line count.
    """
    if not body.isascii():
        return None
    data = body.encode()
    signature = data.translate(None, _NOT_BLANK)
    pairs = (len(signature) + 1) // 2
    if signature != b" \n" * (pairs - 1) + b" ":
        return None
    if pairs >= max(_BULK_EDGES, _BULK_PER_NODE * len(ids)):
        names = _token_keys(" ".join(ids).encode())
        if names is not None:
            return _bulk_rows(data, names, pairs)
    tokens = body.split()
    if len(tokens) != 2 * pairs:
        return None
    rows = [0] * (len(ids) + 1)
    try:
        for u, bit in zip(map(ids.__getitem__, tokens[::2]), map(bits.__getitem__, tokens[1::2])):
            rows[u] |= bit
    except KeyError:
        return None
    return rows if sum(map(int.bit_count, rows)) == pairs else None


# A body is read in bulk from this many edges and this many per node on.
# Below them the numpy calls and the n x n matrix cost more than the
# per-edge loop saves: the bulk read broke even at 1500-2000 edges for
# n = 50-400 and at 5-6 edges per node for n = 400-10^4.
_BULK_EDGES = 2048
_BULK_PER_NODE = 8
# The bulk read takes a body this many bytes at a time, cut at a line break,
# so its per-token arrays stay small.
_BULK_STEP = 2**15
# Fibonacci hashing: the top bits of key * 2^64 / golden ratio pick a slot.
_GOLDEN = 0x9E3779B97F4A7C15


def _token_keys(data: bytes) -> np.ndarray | None:
    """One uint64 key per token of ``data``, tokens being cut by single
    spaces and ``\\n``: the token's bytes as a little-endian integer, zero
    past its end, with its length in the top byte, so two tokens share a key
    only if they are equal.  None when a token is empty or longer than 7
    bytes."""
    padded = data + b" " + bytes(7)
    buf = np.frombuffer(padded, np.uint8)
    ends = np.flatnonzero((buf == 32) | (buf == 10))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > 7:
        return None
    keys = np.ndarray(len(data) + 1, "<u8", padded, strides=(1,))[starts]
    keys &= np.array([(1 << 8 * k) - 1 for k in range(8)], np.uint64)[lengths]
    return keys | lengths.astype(np.uint64) << np.uint64(56)


def _slots(keys, size: int):
    """Each key's home slot in an open-addressing table of ``size`` slots, a
    power of two."""
    return ((keys * np.uint64(_GOLDEN)) >> np.uint64(65 - size.bit_length())).astype(np.intp)


def _bulk_rows(data: bytes, names, pairs: int) -> list[int] | None:
    """The rows of an EDGES body of ``pairs`` lines, given as bytes whose
    whitespace passed :func:`_canonical_edges`'s check; ``names`` holds the
    :func:`_token_keys` of the node names in id order.  None for an unknown
    name or a duplicate edge.

    The names go into one open-addressing table (linear probing, at most
    half full), every token is looked up in it, and each edge sets one
    entry of a boolean matrix, built a bounded chunk of rows at a time and
    packed into the rows' integers.
    """
    n = len(names)
    size = 1 << (2 * n).bit_length()
    table = np.zeros(size, np.uint64)  # a slot's key, 0 if the slot is empty
    node = np.zeros(size, np.intp)  # the id - 1 of the name whose key it holds
    slot = _slots(names, size)
    todo = np.arange(n)
    while todo.size:  # each round, one name takes each free slot it reaches
        at = slot[todo]
        free = table[at] == 0
        table[at[free]] = names[todo[free]]
        won = table[at] == names[todo]
        node[at[won]] = todo[won]
        todo = todo[~won]
        slot[todo] = (slot[todo] + 1) & (size - 1)

    flat = np.empty(pairs, np.intp)  # (u - 1) * n + v - 1 for each edge (u, v)
    done = start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BULK_STEP)
        stop = len(data) if stop < 0 else stop
        keys = _token_keys(data[start:stop])
        if keys is None:
            return None
        slot = _slots(keys, size)
        found = node[slot]
        miss = np.flatnonzero(table[slot] != keys)
        while miss.size:  # probe on; an empty slot means the token names no node
            at = slot[miss]
            if not table[at].all():
                return None
            at = (at + 1) & (size - 1)
            slot[miss] = at
            found[miss] = node[at]
            miss = miss[table[at] != keys[miss]]
        edges = flat[done : done + len(found) // 2]
        np.multiply(found[::2], n, out=edges)
        edges += found[1::2]
        done += len(edges)
        start = stop + 1

    flat.sort()
    rows = [0]
    width = (n + 7) // 8
    step = max(8, _CHUNK_BITS // n)
    for i in range(0, n, step):
        lo, hi = np.searchsorted(flat, (i * n, (i + step) * n))
        bits = np.zeros(min(step, n - i) * n, bool)
        bits[flat[lo:hi] - i * n] = True
        packed = np.packbits(bits.reshape(-1, n), axis=1, bitorder="little").tobytes()
        rows.extend(int.from_bytes(packed[k : k + width], "little")
                    for k in range(0, len(packed), width))
    return rows if sum(map(int.bit_count, rows)) == pairs else None


def _read_edges(
    content: Iterable[tuple[int, list[str]]],
    ids: dict[str, int],
    bits: dict[str, int],
    interval: bool = False,
) -> list[int]:
    """The rows of an EDGES body, or with ``interval`` of a schedule's
    INTERVAL body, which may repeat an edge, read line by line from its
    :func:`_content_lines`; raises :class:`DocumentError` at the first bad
    line."""
    rows = [0] * (len(ids) + 1)
    for lineno, tokens in content:
        if len(tokens) != 2:
            message = ("an interval edge line needs two node names" if interval
                       else "an edge line needs exactly two node names")
            raise DocumentError(message, lineno)
        for tok in tokens:
            if tok not in ids:
                raise DocumentError(f"unknown node name {tok!r}", lineno)
        a, b = tokens
        if rows[ids[a]] & bits[b] and not interval:
            raise DocumentError(f"duplicate edge {a} -> {b}", lineno)
        rows[ids[a]] |= bits[b]
    return rows


def parse_document(text: str) -> NetworkDocument:
    """Parse the text format; raises :class:`DocumentError` with a line number."""
    head, cut = _cut(_single_breaks(text), SECTIONS)
    for lineno, tokens in _content_lines(head.split("\n")):
        raise DocumentError(f"content before any section: {' '.join(tokens)}", lineno)
    bodies: dict[str, tuple[int, str]] = {}  # keyword -> first line of its body, body
    for lineno, keyword, body in cut:
        if keyword in bodies:
            raise DocumentError(f"duplicate section {keyword}", lineno)
        bodies[keyword] = (lineno + 1, body)

    def section(name: str):
        first, body = bodies.get(name, (1, ""))
        return _content_lines(body.split("\n"), first)

    if "NODES" not in bodies:
        raise DocumentError("document has no NODES section")

    names: list[str] = []
    ids: dict[str, int] = {}
    bits: dict[str, int] = {}
    for lineno, tokens in section("NODES"):
        for tok in tokens:
            if tok in SECTIONS:
                raise DocumentError(f"node name {tok!r} collides with a section keyword", lineno)
            if tok in ids:
                raise DocumentError(f"duplicate node name {tok!r}", lineno)
            bits[tok] = 1 << len(names)
            names.append(tok)
            ids[tok] = len(names)
    if not names:
        raise DocumentError("NODES section declares no nodes")

    def known(tok: str, lineno: int) -> int:
        if tok not in ids:
            raise DocumentError(f"unknown node name {tok!r}", lineno)
        return ids[tok]

    rows = _canonical_edges(bodies.get("EDGES", (1, ""))[1], ids, bits)
    if rows is None:
        rows = _read_edges(section("EDGES"), ids, bits)
    graph = DiGraph.from_rows(len(names), rows)

    controls: set[int] = set()
    for lineno, tokens in section("CONTROLS"):
        for tok in tokens:
            node = known(tok, lineno)
            if node in controls:
                raise DocumentError(f"duplicate control node {tok!r}", lineno)
            controls.add(node)

    chains = None
    if "CHAINS" in bodies:
        chains = []
        chain_line: dict[int, int] = {}  # node -> the line of the chain that lists it
        for lineno, tokens in section("CHAINS"):
            chain = tuple(known(tok, lineno) for tok in tokens)
            for tok, v in zip(tokens, chain):
                if v not in chain_line:
                    chain_line[v] = lineno
                elif chain_line[v] == lineno:
                    raise DocumentError("a chain repeats a node", lineno)
                else:
                    raise DocumentError(
                        f"node {tok!r} is already in the chain on line {chain_line[v]}", lineno
                    )
            chains.append(chain)
        if not chains:
            raise DocumentError("CHAINS section declares no chains")

    times = None
    if "TIMES" in bodies:
        times = {}
        for lineno, tokens in section("TIMES"):
            if len(tokens) != 2:
                raise DocumentError("a times line needs a node name and an integer", lineno)
            node = known(tokens[0], lineno)
            try:
                t = int(tokens[1])
            except ValueError:
                raise DocumentError(f"{tokens[1]!r} is not an integer time", lineno) from None
            if t < 1:
                raise DocumentError("times start at 1", lineno)
            if node in times:
                raise DocumentError(f"node {tokens[0]!r} already has a time", lineno)
            times[node] = t

    # a bad line is reported first: the chains are checked as a whole after the TIMES lines
    if times is not None and chains is None:
        raise DocumentError("TIMES needs a CHAINS section to be meaningful")
    if chains is not None:
        chains = ChainSet(tuple(chains))  # nonempty and disjoint, as checked line by line
    doc = NetworkDocument(tuple(names), graph, frozenset(controls), chains, times)
    _validate_annotations(doc)
    return doc


def _validate_annotations(doc: NetworkDocument) -> None:
    """Cross-section coherence of a disjoint CHAINS and of TIMES."""
    cs = doc.chains
    if cs is None:
        return
    if cs.node_count != len(doc.names):
        missing = sorted(set(doc.names) - {doc.name_of(v) for v in cs.nodes})
        raise DocumentError(f"chains must cover every node; missing {missing}")
    rows = doc.network.rows  # row u holds u's out-neighbors, node v as bit v - 1
    stray = [(u, v) for u, v in cs.successor.items() if not rows[u] >> (v - 1) & 1]
    if stray:
        named = sorted((doc.name_of(u), doc.name_of(v)) for u, v in stray)
        raise DocumentError(f"chain edges {named} are not edges of the network")
    try:
        doc.time_function
    except ValueError as exc:
        raise DocumentError(str(exc).replace("invalid time function", "invalid times", 1)) from None


def edge_lines(
    rows: Sequence[int],
    names: Sequence[str],
    indent: str = "",
    newline: str = "\n",
    order: Sequence[int] | None = None,
) -> Iterator[str]:
    """``indent + names[u] + " " + names[v] + newline`` for every edge (u, v)
    of ``rows`` (``rows[u]`` holding u's out-neighbors), in row order and
    then by v; one chunk per nonempty row.  ``names[v]`` names node v,
    ``names[0]`` is unused.  With ``order``, the edges are those of the
    graph relabeled by ``order`` (see :func:`row_nodes`)."""
    for u, targets in row_nodes(rows, names, order):
        head = indent + names[u] + " "
        yield head + (newline + head).join(targets) + newline


def document_chunks(
    names: Sequence[str],
    rows: Sequence[int],
    controls: Iterable[int] = (),
    chains: Iterable[Sequence[int]] | None = None,
    times: Iterable[tuple[int, int]] | None = None,
    newline: str = "\n",
) -> Iterator[str]:
    """The canonical text of a document, in chunks, straight from rows.

    ``names[v]`` names node v (``names[0]`` is unused), ``rows`` are the
    graph's rows, ``controls`` are node ids in id order, ``chains`` node id
    sequences and ``times`` (node, time) pairs in id order.  JSON-escaped
    names with ``newline="\\n"`` write the inside of the text's JSON
    string instead.
    """
    nl = newline
    yield "NODES" + nl + " ".join(names[1:]) + nl + "EDGES" + nl
    yield from edge_lines(rows, names, "", nl)
    controls = [names[v] for v in controls]
    if controls:
        yield "CONTROLS" + nl + " ".join(controls) + nl
    if chains is not None:
        yield "CHAINS" + nl + "".join(" ".join(names[v] for v in c) + nl for c in chains)
    if times is not None:
        yield "TIMES" + nl + "".join(f"{names[v]} {t}{nl}" for v, t in times)


def emit_document(doc: NetworkDocument) -> str:
    """Canonical text for a document; a fixed point of ``emit o parse``."""
    return "".join(document_chunks(
        ("", *doc.names),
        doc.network.rows,
        sorted(doc.controls),
        None if doc.chains is None else doc.chains.chains,
        None if doc.times is None else sorted(doc.times.items()),
    ))


# -- companion files -------------------------------------------------------


def parse_force_list(text: str, doc: NetworkDocument) -> ExplicitForces:
    """Explicit forcing schedule: one ``forcer forced`` name pair per line."""
    ids = doc.node_ids
    forces: list[Edge] = []
    for lineno, tokens in _content_lines(text.splitlines()):
        if len(tokens) != 2:
            raise DocumentError("a force line needs exactly two node names", lineno)
        for tok in tokens:
            if tok not in ids:
                raise DocumentError(f"unknown node name {tok!r}", lineno)
        forces.append((ids[tokens[0]], ids[tokens[1]]))
    return ExplicitForces(tuple(forces))


def parse_inter_edges(
    text: str, docs: Sequence[NetworkDocument]
) -> list[tuple[tuple[int, str], tuple[int, str]]]:
    """Inter-block edges as ``<doc>.<node> <doc>.<node>`` lines (docs 1-based);
    the two endpoints of a line lie in two different documents."""

    def endpoint(tok: str, lineno: int) -> tuple[int, str]:
        head, _, name = tok.partition(".")
        if not name:
            raise DocumentError(f"endpoint {tok!r} must look like 2.u1", lineno)
        try:
            idx = int(head)
        except ValueError:
            raise DocumentError(f"{head!r} is not a document number", lineno) from None
        if not 1 <= idx <= len(docs):
            raise DocumentError(f"document number {idx} out of range", lineno)
        if name not in docs[idx - 1].node_ids:
            raise DocumentError(f"document {idx} has no node {name!r}", lineno)
        return idx - 1, name

    out = []
    for lineno, tokens in _content_lines(text.splitlines()):
        if len(tokens) != 2:
            raise DocumentError("an inter-edge line needs exactly two endpoints", lineno)
        start, end = endpoint(tokens[0], lineno), endpoint(tokens[1], lineno)
        if start[0] == end[0]:
            raise DocumentError(
                f"inter edge {' '.join(tokens)} joins two nodes of document {start[0] + 1}", lineno
            )
        out.append((start, end))
    return out


def parse_schedule_file(
    text: str, doc: NetworkDocument
) -> tuple[tuple[float, ...], list[DiGraph]]:
    """Piecewise schedule: a BREAKPOINTS section of numbers, then one
    INTERVAL section per piece listing the optional edges present during
    that piece; each piece comes back as a :class:`DiGraph` on the nodes of
    ``doc``.

    The text is read whole, as :func:`parse_document` reads it, and an
    INTERVAL body is read like an EDGES body, except that it may repeat an
    edge.  Errors name the first bad line.
    """
    head, cut = _cut(_single_breaks(text), ("BREAKPOINTS", "INTERVAL"))
    for lineno, _ in _content_lines(head.split("\n")):
        raise DocumentError("content before any schedule section", lineno)
    ids = doc.node_ids
    bits = {name: 1 << i for i, name in enumerate(doc.names)}
    breakpoints: list[float] | None = None
    pieces: list[DiGraph] = []
    for first, keyword, body in cut:
        if keyword == "BREAKPOINTS":
            if breakpoints is not None:
                raise DocumentError("duplicate BREAKPOINTS section", first)
            breakpoints = []
            for lineno, tokens in _content_lines(body.split("\n"), first + 1):
                try:
                    breakpoints.extend(map(float, tokens))
                except ValueError:
                    raise DocumentError("breakpoints must be numbers", lineno) from None
        elif breakpoints is None:
            raise DocumentError("INTERVAL before BREAKPOINTS", first)
        else:
            rows = _canonical_edges(body, ids, bits) if body else [0] * (len(ids) + 1)
            if rows is None:
                rows = _read_edges(_content_lines(body.split("\n"), first + 1), ids, bits, True)
            pieces.append(DiGraph.from_rows(len(ids), rows))
    if breakpoints is None or len(breakpoints) < 2:
        raise DocumentError("schedule needs at least two breakpoints")
    if len(pieces) != len(breakpoints) - 1:
        raise DocumentError(f"{len(breakpoints) - 1} intervals expected, {len(pieces)} declared")
    return tuple(breakpoints), pieces

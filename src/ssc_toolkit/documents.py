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
:class:`~ssc_toolkit.graphs.DiGraph` rows as it reads: section headers are
found by a scan for their keywords, and the ``EDGES`` block is split in
one pass and mapped through a name-to-bit table, each edge setting one
bit of its source's row.  Only a block that fails a check is read again
line by line, to report the first bad line.  Controls, chains and times
are kept on node ids, so a parsed document is canonical: two texts of
the same network parse to equal documents.  :func:`document_chunks`
writes the canonical text straight from rows, one chunk per row, in
plain text or as the inside of a JSON string.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .forcing import ExplicitForces
from .graphs import Chain, ChainSet, ConsistencyError, DiGraph, Edge, mask_nodes
from .synthesis import TimeFunction

SECTIONS = ("NODES", "EDGES", "CONTROLS", "CHAINS", "TIMES")

_COMMENT = re.compile("#.*")


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
        """The network as a :class:`DiGraph`."""
        return self.network

    def time_function(self) -> TimeFunction | None:
        """The chains and times as one :class:`TimeFunction`, or None without
        both sections.  It is built, and so checked, once: on first use."""
        return self._time_function

    @cached_property
    def _time_function(self) -> TimeFunction | None:
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


def _section_heads(lines: Sequence[str]) -> list[tuple[int, str]]:
    """(index into ``lines``, keyword) of every section header line.

    Only the lines holding a keyword are split, so the rest of the text
    costs one ``str.find`` scan per keyword.
    """
    text = "\n".join(lines)
    found: dict[int, str] = {}  # offset of a header line -> its keyword
    for keyword in SECTIONS:
        pos = text.find(keyword)
        while pos >= 0:
            start = text.rfind("\n", 0, pos) + 1
            end = text.find("\n", pos)
            end = len(text) if end < 0 else end
            if text[start:end].split("#", 1)[0].split() == [keyword]:
                found[start] = keyword
            pos = text.find(keyword, end)
    heads = []
    index = pos = 0
    for start in sorted(found):
        index += text.count("\n", pos, start)
        pos = start
        heads.append((index, found[start]))
    return heads


def _parse_edges(
    lines: Sequence[str], first: int, ids: dict[str, int], bits: dict[str, int]
) -> DiGraph:
    """The graph of an EDGES block whose first line is line ``first``;
    ``ids`` and ``bits`` map each name to its node and its bit.

    The block is split in one pass and every pair goes through a
    name-to-bit table; a line without exactly two tokens stops the pass,
    and a duplicate edge shows as a bit count short of the pair count.  A
    block that fails any check is read again line by line only to raise
    the error of its first bad line.
    """
    block = "\n".join(lines)
    split = map(str.split, _COMMENT.sub("", block).split("\n") if "#" in block else lines)
    pairs = list(filter(None, split))  # the token lists of the lines with tokens
    rows = [0] * (len(ids) + 1)
    try:
        for a, b in pairs:  # a ValueError here is a line without exactly two tokens
            rows[ids[a]] |= bits[b]
    except (KeyError, ValueError):
        pass
    else:
        graph = DiGraph.from_rows(len(ids), rows)
        if graph.edge_count == len(pairs):
            return graph
    seen: set[tuple[str, str]] = set()
    for lineno, tokens in _content_lines(lines, first):
        if len(tokens) != 2:
            raise DocumentError("an edge line needs exactly two node names", lineno)
        for tok in tokens:
            if tok not in ids:
                raise DocumentError(f"unknown node name {tok!r}", lineno)
        edge = (tokens[0], tokens[1])
        if edge in seen:
            raise DocumentError(f"duplicate edge {edge[0]} -> {edge[1]}", lineno)
        seen.add(edge)
    raise ConsistencyError("the EDGES block failed a check that none of its lines fails")


def parse_document(text: str) -> NetworkDocument:
    """Parse the text format; raises :class:`DocumentError` with a line number."""
    lines = text.splitlines()
    heads = _section_heads(lines)
    for lineno, tokens in _content_lines(lines[: heads[0][0] if heads else len(lines)]):
        raise DocumentError(f"content before any section: {' '.join(tokens)}", lineno)
    spans: dict[str, tuple[int, int]] = {}  # section -> its body's lines[start:stop]
    for k, (index, name) in enumerate(heads):
        if name in spans:
            raise DocumentError(f"duplicate section {name}", index + 1)
        spans[name] = (index + 1, heads[k + 1][0] if k + 1 < len(heads) else len(lines))

    def section(name: str):
        start, stop = spans.get(name, (0, 0))
        return _content_lines(lines[start:stop], start + 1)

    if "NODES" not in spans:
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

    start, stop = spans.get("EDGES", (0, 0))
    graph = _parse_edges(lines[start:stop], start + 1, ids, bits)

    controls: set[int] = set()
    for lineno, tokens in section("CONTROLS"):
        for tok in tokens:
            node = known(tok, lineno)
            if node in controls:
                raise DocumentError(f"duplicate control node {tok!r}", lineno)
            controls.add(node)

    chains = None
    if "CHAINS" in spans:
        chain_list = []
        for lineno, tokens in section("CHAINS"):
            chain = tuple(known(tok, lineno) for tok in tokens)
            if len(set(chain)) != len(chain):
                raise DocumentError("a chain repeats a node", lineno)
            chain_list.append(Chain(chain))
        if not chain_list:
            raise DocumentError("CHAINS section declares no chains")
        chains = ChainSet(tuple(chain_list))

    times = None
    if "TIMES" in spans:
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

    doc = NetworkDocument(tuple(names), graph, frozenset(controls), chains, times)
    _validate_annotations(doc)
    return doc


def _validate_annotations(doc: NetworkDocument) -> None:
    """Cross-section coherence of CHAINS and TIMES."""
    if doc.times is not None and doc.chains is None:
        raise DocumentError("TIMES needs a CHAINS section to be meaningful")
    if doc.chains is None:
        return
    cs = doc.chains
    if not cs.is_disjoint:
        raise DocumentError("chains share nodes")
    if cs.nodes != frozenset(range(1, len(doc.names) + 1)):
        missing = sorted(set(doc.names) - {doc.name_of(v) for v in cs.nodes})
        raise DocumentError(f"chains must cover every node; missing {missing}")
    g = doc.graph()
    stray = [(u, v) for u, v in cs.chain_edges if not g.has_edge(u, v)]
    if stray:
        named = sorted((doc.name_of(u), doc.name_of(v)) for u, v in stray)
        raise DocumentError(f"chain edges {named} are not edges of the network")
    try:
        doc.time_function()
    except ValueError as exc:
        raise DocumentError(str(exc).replace("invalid time function", "invalid times", 1)) from None


def edge_lines(
    rows: Sequence[int], names: Sequence[str], indent: str = "", newline: str = "\n"
) -> Iterator[str]:
    """``indent + names[u] + " " + names[v] + newline`` for every edge (u, v)
    of ``rows`` (``rows[u]`` holding u's out-neighbors), in row order and
    then by v; one chunk per nonempty row.  ``names[v]`` names node v,
    ``names[0]`` is unused."""
    for u, row in enumerate(rows):
        if row:
            head = indent + names[u] + " "
            yield head + (newline + head).join([names[v] for v in mask_nodes(row)]) + newline


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
        None if doc.chains is None else [c.nodes for c in doc.chains.chains],
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
    """Inter-block edges as ``<doc>.<node> <doc>.<node>`` lines (docs 1-based)."""

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
        out.append((endpoint(tokens[0], lineno), endpoint(tokens[1], lineno)))
    return out


def parse_schedule_file(
    text: str, doc: NetworkDocument
) -> tuple[tuple[float, ...], list[list[Edge]]]:
    """Piecewise schedule: a BREAKPOINTS line, then one INTERVAL section per
    piece listing the optional edges present during that piece."""
    ids = doc.node_ids
    breakpoints: list[float] | None = None
    intervals: list[list[Edge]] = []
    mode: str | None = None
    for lineno, tokens in _content_lines(text.splitlines()):
        if tokens == ["BREAKPOINTS"]:
            if breakpoints is not None:
                raise DocumentError("duplicate BREAKPOINTS section", lineno)
            breakpoints = []
            mode = "bp"
            continue
        if tokens == ["INTERVAL"]:
            if breakpoints is None:
                raise DocumentError("INTERVAL before BREAKPOINTS", lineno)
            intervals.append([])
            mode = "iv"
            continue
        if mode == "bp":
            try:
                breakpoints.extend(float(tok) for tok in tokens)
            except ValueError:
                raise DocumentError("breakpoints must be numbers", lineno) from None
        elif mode == "iv":
            if len(tokens) != 2:
                raise DocumentError("an interval edge line needs two node names", lineno)
            for tok in tokens:
                if tok not in ids:
                    raise DocumentError(f"unknown node name {tok!r}", lineno)
            intervals[-1].append((ids[tokens[0]], ids[tokens[1]]))
        else:
            raise DocumentError("content before any schedule section", lineno)
    if breakpoints is None or len(breakpoints) < 2:
        raise DocumentError("schedule needs at least two breakpoints")
    if len(intervals) != len(breakpoints) - 1:
        raise DocumentError(
            f"{len(breakpoints) - 1} intervals expected, {len(intervals)} declared"
        )
    return tuple(breakpoints), intervals

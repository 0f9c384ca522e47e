"""Network documents: the line-oriented text format and its JSON mirror.

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

The parser builds the network's :class:`~ssc_toolkit.graphs.DiGraph` as
it reads: each ``EDGES`` line sets one bit of its source's row, and a bit
already set is a duplicate edge.  The document keeps that graph, so the
annotation checks and every caller of :meth:`NetworkDocument.graph` share
one build.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .forcing import ExplicitForces
from .graphs import Chain, ChainSet, DiGraph, Edge, mask_nodes
from .synthesis import TimeFunction, validate_time_function

SECTIONS = ("NODES", "EDGES", "CONTROLS", "CHAINS", "TIMES")


class DocumentError(ValueError):
    """A malformed document, with the line that broke."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class NetworkDocument:
    """A named network with optional chain/time annotations."""

    names: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()
    controls: tuple[str, ...] = ()
    chains: tuple[tuple[str, ...], ...] | None = None
    times: tuple[tuple[str, int], ...] | None = None

    @cached_property
    def node_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names, start=1)}

    def name_of(self, node: int) -> str:
        return self.names[node - 1]

    @cached_property
    def _graph(self) -> DiGraph:
        ids = self.node_ids
        return DiGraph(len(self.names), ((ids[a], ids[b]) for a, b in self.edges))

    def graph(self) -> DiGraph:
        """The network as a :class:`DiGraph`, built once per document.

        :func:`parse_document` builds it while it reads the EDGES lines;
        a document constructed directly builds it on first use.
        """
        return self._graph

    def control_ids(self) -> frozenset[int]:
        ids = self.node_ids
        return frozenset(ids[c] for c in self.controls)

    def chain_set(self) -> ChainSet | None:
        if self.chains is None:
            return None
        ids = self.node_ids
        return ChainSet(tuple(Chain(tuple(ids[v] for v in c)) for c in self.chains))

    def time_function(self) -> TimeFunction | None:
        cs = self.chain_set()
        if cs is None or self.times is None:
            return None
        ids = self.node_ids
        return TimeFunction(cs, {ids[v]: t for v, t in self.times})

    def normalize(self) -> "NetworkDocument":
        """Canonical ordering: edges/controls/times sorted by node id."""
        ids = self.node_ids
        return NetworkDocument(
            names=self.names,
            edges=tuple(sorted(self.edges, key=lambda e: (ids[e[0]], ids[e[1]]))),
            controls=tuple(sorted(self.controls, key=lambda c: ids[c])),
            chains=self.chains,
            times=None
            if self.times is None
            else tuple(sorted(self.times, key=lambda kv: ids[kv[0]])),
        )

    def to_json_dict(self) -> dict:
        out: dict = {
            "nodes": list(self.names),
            "edges": [list(e) for e in self.edges],
            "controls": list(self.controls),
        }
        if self.chains is not None:
            out["chains"] = [list(c) for c in self.chains]
        if self.times is not None:
            out["times"] = {name: t for name, t in self.times}
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkDocument":
        times = data.get("times")
        return cls(
            names=tuple(data["nodes"]),
            edges=tuple((a, b) for a, b in data.get("edges", [])),
            controls=tuple(data.get("controls", [])),
            chains=None
            if "chains" not in data
            else tuple(tuple(c) for c in data["chains"]),
            times=None
            if times is None
            else tuple((name, int(t)) for name, t in times.items()),
        )

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
        name = lambda v: names[v - 1]
        chains = times = None
        if tf is not None:
            chains = tuple(tuple(name(v) for v in c.nodes) for c in tf.chains.chains)
            times = tuple((name(v), t) for v, t in sorted(tf.times.items()))
        return cls(
            names=tuple(names),
            edges=tuple(
                (name(u), name(v)) for u in g.nodes for v in mask_nodes(g.rows[u])
            ),
            controls=tuple(name(v) for v in sorted(controls)),
            chains=chains,
            times=times,
        )  # canonical already: edges, controls and times in node-id order


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if tokens:
            yield lineno, tokens


def parse_document(text: str) -> NetworkDocument:
    """Parse the text format; raises :class:`DocumentError` with a line number."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    body: list[tuple[int, list[str]]] | None = None  # the current section's lines
    for lineno, tokens in _content_lines(text):
        if len(tokens) == 1 and tokens[0] in SECTIONS:
            name = tokens[0]
            if name in sections:
                raise DocumentError(f"duplicate section {name}", lineno)
            body = sections[name] = []
            continue
        if body is None:
            raise DocumentError(f"content before any section: {' '.join(tokens)}", lineno)
        body.append((lineno, tokens))

    if "NODES" not in sections:
        raise DocumentError("document has no NODES section")

    names: list[str] = []
    ids: dict[str, int] = {}
    for lineno, tokens in sections["NODES"]:
        for tok in tokens:
            if tok in SECTIONS:
                raise DocumentError(f"node name {tok!r} collides with a section keyword", lineno)
            if tok in ids:
                raise DocumentError(f"duplicate node name {tok!r}", lineno)
            names.append(tok)
            ids[tok] = len(names)
    if not names:
        raise DocumentError("NODES section declares no nodes")

    def known(tok: str, lineno: int) -> str:
        if tok not in ids:
            raise DocumentError(f"unknown node name {tok!r}", lineno)
        return tok

    # Each edge line goes straight into the graph's rows; a bit already set
    # is a duplicate edge.
    edges: list[tuple[str, str]] = []
    rows = [0] * (len(names) + 1)
    node_id = ids.get
    for lineno, tokens in sections.get("EDGES", ()):
        if len(tokens) != 2:
            raise DocumentError("an edge line needs exactly two node names", lineno)
        a, b = tokens
        u, v = node_id(a), node_id(b)
        if u is None or v is None:
            raise DocumentError(f"unknown node name {a if u is None else b!r}", lineno)
        row, bit = rows[u], 1 << (v - 1)
        if row & bit:
            raise DocumentError(f"duplicate edge {a} -> {b}", lineno)
        rows[u] = row | bit
        edges.append((a, b))

    controls: list[str] = []
    control_seen: set[str] = set()
    for lineno, tokens in sections.get("CONTROLS", []):
        for tok in tokens:
            known(tok, lineno)
            if tok in control_seen:
                raise DocumentError(f"duplicate control node {tok!r}", lineno)
            control_seen.add(tok)
            controls.append(tok)

    chains = None
    if "CHAINS" in sections:
        chains_list = []
        for lineno, tokens in sections["CHAINS"]:
            chain = tuple(known(tok, lineno) for tok in tokens)
            if len(set(chain)) != len(chain):
                raise DocumentError("a chain repeats a node", lineno)
            chains_list.append(chain)
        if not chains_list:
            raise DocumentError("CHAINS section declares no chains")
        chains = tuple(chains_list)

    times = None
    if "TIMES" in sections:
        times_list = []
        stamped: set[str] = set()
        for lineno, tokens in sections["TIMES"]:
            if len(tokens) != 2:
                raise DocumentError("a times line needs a node name and an integer", lineno)
            node = known(tokens[0], lineno)
            try:
                t = int(tokens[1])
            except ValueError:
                raise DocumentError(f"{tokens[1]!r} is not an integer time", lineno) from None
            if t < 1:
                raise DocumentError("times start at 1", lineno)
            if node in stamped:
                raise DocumentError(f"node {node!r} already has a time", lineno)
            stamped.add(node)
            times_list.append((node, t))
        times = tuple(times_list)

    doc = NetworkDocument(tuple(names), tuple(edges), tuple(controls), chains, times)
    # Fill the document's cached properties with what parsing built.
    doc.__dict__["node_ids"] = ids
    doc.__dict__["_graph"] = DiGraph.from_rows(len(names), rows)
    _validate_annotations(doc)
    return doc


def _validate_annotations(doc: NetworkDocument) -> None:
    """Cross-section coherence of CHAINS and TIMES."""
    if doc.times is not None and doc.chains is None:
        raise DocumentError("TIMES needs a CHAINS section to be meaningful")
    if doc.chains is None:
        return
    cs = doc.chain_set()
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
    if doc.times is not None:
        tf = doc.time_function()
        problems = validate_time_function(tf)
        if problems:
            raise DocumentError("invalid times: " + "; ".join(problems))


def emit_document(doc: NetworkDocument) -> str:
    """Canonical text for a document; a fixed point of ``emit o parse``."""
    doc = doc.normalize()
    lines = ["NODES", " ".join(doc.names), "EDGES"]
    lines.extend(f"{a} {b}" for a, b in doc.edges)
    if doc.controls:
        lines.append("CONTROLS")
        lines.append(" ".join(doc.controls))
    if doc.chains is not None:
        lines.append("CHAINS")
        lines.extend(" ".join(c) for c in doc.chains)
    if doc.times is not None:
        lines.append("TIMES")
        lines.extend(f"{name} {t}" for name, t in doc.times)
    return "\n".join(lines) + "\n"


def document_to_json(doc: NetworkDocument) -> str:
    return json.dumps(doc.to_json_dict(), indent=2, sort_keys=True) + "\n"


def document_from_json(text: str) -> NetworkDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON document: {exc}") from None
    return NetworkDocument.from_json_dict(data)


# -- companion files -------------------------------------------------------


def parse_force_list(text: str, doc: NetworkDocument) -> ExplicitForces:
    """Explicit forcing schedule: one ``forcer forced`` name pair per line."""
    ids = doc.node_ids
    forces: list[Edge] = []
    for lineno, tokens in _content_lines(text):
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
    for lineno, tokens in _content_lines(text):
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
    for lineno, tokens in _content_lines(text):
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

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssc_toolkit.documents import (
    DocumentError,
    NetworkDocument,
    document_from_json,
    document_to_json,
    emit_document,
    parse_document,
    parse_force_list,
    parse_inter_edges,
    parse_schedule_file,
)
from ssc_toolkit.graphs import DiGraph

from reference import line_by_line_document

RING = """\
# ring with chord
NODES
v1 v2 v3 v4 v5 v6
EDGES
v1 v2
v2 v1
v2 v3
v3 v2
v3 v4
v4 v3
v4 v5
v5 v4
v5 v6
v6 v5
v2 v6
v6 v2
v1 v6
v6 v1
CONTROLS
v1 v2
"""

ANNOTATED = """\
NODES
a b c
EDGES
a b
b c
CONTROLS
a
CHAINS
a b c
TIMES
a 1
b 2
c 3
"""


class TestParse:
    def test_ring_document(self):
        doc = parse_document(RING)
        assert doc.names == ("v1", "v2", "v3", "v4", "v5", "v6")
        g = doc.graph()
        assert g.n == 6 and g.edge_count == 14
        assert doc.control_ids() == {1, 2}
        assert doc.chains is None and doc.times is None

    def test_annotated_document(self):
        doc = parse_document(ANNOTATED)
        tf = doc.time_function()
        assert tf is not None
        assert tf.times == {1: 1, 2: 2, 3: 3}
        assert [c.nodes for c in tf.chains.chains] == [(1, 2, 3)]

    def test_comments_and_blanks_ignored(self):
        doc = parse_document("# header\n\nNODES\nx # trailing\n\nEDGES\n\nCONTROLS\nx\n")
        assert doc.names == ("x",) and doc.controls == ("x",)

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("NODES\na a\n", 2, "duplicate node"),
            ("NODES\na\nEDGES\na b\n", 4, "unknown node"),
            ("NODES\na b\nEDGES\na b c\n", 4, "exactly two"),
            ("NODES\na b\nEDGES\na b\na b\n", 5, "duplicate edge"),
            ("NODES\na\nTIMES\na x\n", 4, "not an integer"),
            ("NODES\na\nTIMES\na 0\n", 4, "start at 1"),
            ("NODES\na\nCHAINS\na a\n", 4, "repeats a node"),
            ("stray\nNODES\na\n", 1, "before any section"),
            ("NODES\na\nNODES\nb\n", 3, "duplicate section"),
            ("NODES\na b\nEDGES\na c\n", 4, "unknown node name 'c'"),
            ("EDGES\nb a\nNODES\na\n", 2, "unknown node name 'b'"),
            ("NODES\na\nEDGES\na a\n# again\na a\n", 6, "duplicate edge a -> a"),
            ("NODES\na b\nCONTROLS\na b\nb\n", 5, "duplicate control node 'b'"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.line == line
        assert fragment in str(err.value)

    def test_missing_nodes_section(self):
        with pytest.raises(DocumentError, match="NODES"):
            parse_document("EDGES\n")

    def test_times_without_chains_rejected(self):
        with pytest.raises(DocumentError, match="CHAINS"):
            parse_document("NODES\na\nTIMES\na 1\n")

    def test_chains_must_cover_and_use_real_edges(self):
        with pytest.raises(DocumentError, match="cover"):
            parse_document("NODES\na b\nEDGES\na b\nCHAINS\na\n")
        with pytest.raises(DocumentError, match="not edges"):
            parse_document("NODES\na b\nEDGES\nb a\nCHAINS\na b\n")

    def test_invalid_times_rejected(self):
        text = "NODES\na b\nEDGES\na b\nCHAINS\na b\nTIMES\na 1\nb 5\n"
        with pytest.raises(DocumentError, match="invalid times"):
            parse_document(text)


@st.composite
def documents(draw):
    """Text of a random document, its node names and its edge lines in order.

    Sections come in either order, with blank lines, comments and uneven
    whitespace between the tokens.
    """
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_.]{0,4}", fullmatch=True),
                          min_size=n, max_size=n, unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          unique=True, max_size=20))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    node_lines = ["NODES", *(" ".join(names[i:i + 3]) for i in range(0, len(names), 3))]
    edge_lines = ["EDGES"]
    for a, b in edges:
        line = f"{a}{draw(gap)}{b}"
        if draw(st.booleans()):
            line += f"{draw(gap)}# {a} to {b}"
        edge_lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            edge_lines.append(draw(st.sampled_from(["", "# note", "   "])))
    sections = [node_lines, edge_lines]
    if draw(st.booleans()):
        sections.reverse()
    text = "\n".join(line for section in sections for line in section) + "\n"
    return text, names, edges


class TestParsedGraph:
    @given(documents())
    def test_graph_is_the_name_mapped_edge_set(self, case):
        text, names, edges = case
        doc = parse_document(text)
        ids = {name: i for i, name in enumerate(names, start=1)}
        assert doc.names == tuple(names)
        assert doc.edges == tuple(edges)
        assert doc.graph() == DiGraph(len(names), [(ids[a], ids[b]) for a, b in edges])
        assert doc.graph().edges == {(ids[a], ids[b]) for a, b in edges}

    def test_graph_is_built_once(self):
        doc = parse_document(RING)
        assert doc.graph() is doc.graph()
        direct = NetworkDocument(doc.names, doc.edges, doc.controls)
        assert direct.graph() is direct.graph()
        assert direct.graph() == doc.graph()


# Line breaks as ``str.splitlines`` sees them, and whitespace that stays
# inside a line; form feed and U+2028 are whitespace that also ends a line.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
GAPS = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000", " \t"]
LINE_ENDING_GAPS = ["\x0c", "\u2028"]


@st.composite
def raw_documents(draw):
    """Text of a document with NODES, EDGES and maybe CONTROLS, often
    malformed: lines of one and three tokens that balance each other out,
    unknown names, duplicate edges, stray or repeated sections, and
    whitespace where ``str.split`` and ``str.splitlines`` disagree."""
    names = draw(st.lists(st.from_regex(r'[ab][ab1"\\\xe9]{0,2}', fullmatch=True),
                          min_size=1, max_size=6, unique=True))
    if draw(st.integers(0, 19)) == 5:  # rare events avoid the values hypothesis favors
        names.append("EDGES")
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges = [list(e) for e in draw(st.lists(pair, max_size=12, unique=draw(st.booleans())))]
    if len(edges) >= 2 and draw(st.booleans()):  # 2 + 2 tokens become 1 + 3
        i = draw(st.integers(0, len(edges) - 2))
        edges[i:i + 2] = [edges[i][:1], [edges[i][1], *edges[i + 1]]]
    if edges and draw(st.integers(0, 5)) == 3:
        edges[draw(st.integers(0, len(edges) - 1))][0] = "zz"
    sections = [[["NODES"], *(names[i:i + 2] for i in range(0, len(names), 2))],
                [["EDGES"], *edges]]
    if draw(st.booleans()):
        sections.append([["CONTROLS"], draw(st.lists(st.sampled_from(names), max_size=3))])
    if draw(st.integers(0, 9)) == 5:
        sections.append([["EDGES"]])
    if draw(st.booleans()):
        sections.reverse()
    lines = [tokens for section in sections for tokens in section]
    if draw(st.integers(0, 9)) == 5:
        lines.insert(0, ["stray"])
    gap = st.sampled_from(GAPS + LINE_ENDING_GAPS if draw(st.integers(0, 3)) == 2 else GAPS)
    out = []
    for tokens in lines:
        line = draw(st.sampled_from(["", " ", "\t"])) + "".join(
            tok + (draw(gap) if k < len(tokens) - 1 else "") for k, tok in enumerate(tokens))
        if draw(st.integers(0, 3)) == 2:
            line += draw(gap) + "# " + draw(st.sampled_from(["note", "EDGES", "a b c"]))
        out.append(line)
        if draw(st.integers(0, 5)) == 3:
            out.append(draw(st.sampled_from(["", "   ", "# comment", "\t# EDGES"])))
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in out]
    return "".join(line + brk for line, brk in zip(out, breaks))


class TestBulkParse:
    @settings(max_examples=400)
    @given(raw_documents())
    def test_agrees_with_a_line_by_line_reading(self, text):
        try:
            names, edges, ids = line_by_line_document(text)
        except DocumentError as exc:
            with pytest.raises(DocumentError) as got:
                parse_document(text)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
            return
        doc = parse_document(text)
        assert doc.names == names
        assert doc.edges == edges
        assert doc.graph() == DiGraph(len(names), ids)

    @pytest.mark.parametrize("text, line, fragment", [
        ("NODES\na b c\nEDGES\na b c\nc\n", 4, "exactly two"),
        ("NODES\na b\nEDGES\na\x1fb\na\x0cb\n", 5, "exactly two"),
        ("NODES\na b\nEDGES\na\u2028b\n", 4, "exactly two"),
        ("NODES\na b\nEDGES\na\xa0b # c\r\nb a\r\na b\n", 6, "duplicate edge a -> b"),
        ("NODES\na b\nEDGES\na b\n\nb zz\n", 6, "unknown node name 'zz'"),
    ])
    def test_a_failed_bulk_check_names_the_first_bad_line(self, text, line, fragment):
        with pytest.raises(DocumentError, match=fragment) as got:
            parse_document(text)
        assert got.value.line == line


class TestRoundTrip:
    @pytest.mark.parametrize("text", [RING, ANNOTATED])
    def test_emit_parse_fixed_point(self, text):
        doc = parse_document(text)
        emitted = emit_document(doc)
        again = parse_document(emitted)
        assert again == doc.normalize()
        assert emit_document(again) == emitted

    @pytest.mark.parametrize("text", [RING, ANNOTATED])
    def test_json_mirror(self, text):
        doc = parse_document(text)
        mirrored = document_from_json(document_to_json(doc))
        assert mirrored == doc
        data = json.loads(document_to_json(doc))
        assert data["nodes"] == list(doc.names)

    def test_from_graph_round_trip(self):
        doc = parse_document(ANNOTATED)
        rebuilt = NetworkDocument.from_graph(
            doc.graph(), doc.names, doc.control_ids(), doc.time_function()
        )
        assert rebuilt == doc.normalize()

    def test_controls_section_optional(self):
        doc = parse_document("NODES\na b\nEDGES\na b\n")
        assert doc.controls == ()
        again = parse_document(emit_document(doc))
        assert again == doc.normalize()


class TestCompanionFiles:
    def test_force_list(self):
        doc = parse_document(RING)
        policy = parse_force_list("v1 v6\nv2 v3\n", doc)
        assert policy.forces == ((1, 6), (2, 3))
        with pytest.raises(DocumentError, match="unknown node"):
            parse_force_list("v1 bogus\n", doc)

    def test_inter_edges(self):
        docs = [parse_document(ANNOTATED), parse_document(RING)]
        out = parse_inter_edges("1.a 2.v1\n2.v6 1.c\n", docs)
        assert out == [((0, "a"), (1, "v1")), ((1, "v6"), (0, "c"))]
        with pytest.raises(DocumentError, match="document number"):
            parse_inter_edges("3.a 1.a\n", docs)
        with pytest.raises(DocumentError, match="has no node"):
            parse_inter_edges("1.zz 2.v1\n", docs)

    def test_schedule_file(self):
        doc = parse_document(ANNOTATED)
        text = "BREAKPOINTS\n0 1 2\nINTERVAL\na a\nINTERVAL\nc a\n"
        breakpoints, pieces = parse_schedule_file(text, doc)
        assert breakpoints == (0.0, 1.0, 2.0)
        assert pieces == [[(1, 1)], [(3, 1)]]

    def test_schedule_interval_count_checked(self):
        doc = parse_document(ANNOTATED)
        with pytest.raises(DocumentError, match="intervals expected"):
            parse_schedule_file("BREAKPOINTS\n0 1 2\nINTERVAL\n", doc)

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssc_toolkit import documents as documents_module
from ssc_toolkit.documents import (
    DocumentError,
    NetworkDocument,
    emit_document,
    parse_document,
    parse_force_list,
    parse_inter_edges,
    parse_schedule_file,
)
from ssc_toolkit.graphs import DiGraph
from ssc_toolkit.synthesis import (
    optional_edges,
    random_chain_set,
    random_time_function,
    sample_member,
)

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
        g = doc.network
        assert g.n == 6 and g.edge_count == 14
        assert doc.controls == {1, 2}
        assert doc.chains is None and doc.times is None

    def test_annotated_document(self):
        doc = parse_document(ANNOTATED)
        tf = doc.time_function
        assert tf is not None
        assert tf.times == {1: 1, 2: 2, 3: 3}
        assert tf.chains.chains == ((1, 2, 3),)

    def test_comments_and_blanks_ignored(self):
        doc = parse_document("# header\n\nNODES\nx # trailing\n\nEDGES\n\nCONTROLS\nx\n")
        assert doc.names == ("x",) and doc.controls == {1}

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

    def test_overlapping_chains_name_the_node_and_both_lines(self):
        text = "NODES\na b\nEDGES\na b\nCHAINS\na b\n# b again\nb\n"
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == "line 8: node 'b' is already in the chain on line 6"
        assert err.value.line == 8
        # a bad CHAINS line is a bad line: it is reported before the TIMES lines are read
        with pytest.raises(DocumentError) as err:
            parse_document(text + "TIMES\na x\n")
        assert err.value.line == 8
        # the chains are checked as a whole only after the TIMES lines
        with pytest.raises(DocumentError) as err:
            parse_document("NODES\na b\nEDGES\na b\nCHAINS\na\nTIMES\na x\n")
        assert err.value.line == 8 and "not an integer time" in str(err.value)

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
        assert doc.network == DiGraph(len(names), [(ids[a], ids[b]) for a, b in edges])
        assert doc.network.edges == {(ids[a], ids[b]) for a, b in edges}


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
    whitespace where ``str.split`` and ``str.splitlines`` disagree.

    One draw in four writes the EDGES section as the writer does: ``a b``
    lines, one space inside, ``\\n`` after each, no blank lines or
    comments; the malformed lines among them then differ from canonical
    ones only in their token counts and names."""
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
    canonical = draw(st.integers(0, 3)) == 1
    lines = [(tokens, canonical and section[0] == ["EDGES"])
             for section in sections for tokens in section]
    if draw(st.integers(0, 9)) == 5:
        lines.insert(0, (["stray"], False))
    gap = st.sampled_from(GAPS + LINE_ENDING_GAPS if draw(st.integers(0, 3)) == 2 else GAPS)
    out = []
    for tokens, plain in lines:
        if plain:
            out.append(" ".join(tokens))
            continue
        line = draw(st.sampled_from(["", " ", "\t"])) + "".join(
            tok + (draw(gap) if k < len(tokens) - 1 else "") for k, tok in enumerate(tokens))
        if draw(st.integers(0, 3)) == 2:
            line += draw(gap) + "# " + draw(st.sampled_from(["note", "EDGES", "a b c"]))
        out.append(line)
        if draw(st.integers(0, 5)) == 3:
            out.append(draw(st.sampled_from(["", "   ", "# comment", "\t# EDGES"])))
    if canonical:
        return "".join(line + "\n" for line in out)
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in out]
    return "".join(line + brk for line, brk in zip(out, breaks))


class TestBulkParse:
    @settings(max_examples=400)
    @given(raw_documents())
    def test_agrees_with_a_line_by_line_reading(self, text):
        _assert_reads_as_the_reference(text)

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

    # EDGES bodies whose whitespace reads like ``a b`` lines but which do
    # not hold two names on every line.
    @pytest.mark.parametrize("edges", [
        "v1 v2\n \nv2 v1\n",  # a lone space is a blank line
        "v1 v2\nv2 \nv1 v1\n",
        "v1 v2\n v2\nv1 v1\n",
        "v1 v2\nv2 ",
        " v2",
        "",
        "v2 v1\n",
    ], ids=["lone-space", "trailing-space", "leading-space", "last-line", "one-name",
            "empty", "one-edge"])
    @pytest.mark.parametrize("after", ["", "CONTROLS\nv1\n"], ids=["last", "middle"])
    def test_near_canonical_bodies_read_as_lines(self, edges, after):
        _assert_reads_as_the_reference("NODES\nv1 v2\nEDGES\n" + edges + after)

    @settings(max_examples=50)
    @given(documents(), st.data())
    def test_written_documents_skip_the_line_reader(self, case, data):
        text, names, edges = case
        assume(edges)
        doc = parse_document(text)
        controls = data.draw(st.sets(st.integers(1, len(names))))
        doc = NetworkDocument.from_graph(doc.network, doc.names, controls)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(documents_module, "_read_edges", _line_reader_called)
            assert parse_document(emit_document(doc)) == doc

    def test_a_written_family_member_skips_the_line_reader(self):
        rng = np.random.default_rng(400)
        tf = random_time_function(random_chain_set(400, 5, rng), rng)
        g = sample_member(tf, rng)
        doc = NetworkDocument.from_graph(g, [f"v{v}" for v in g.nodes], tf.chains.sources, tf)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(documents_module, "_read_edges", _line_reader_called)
            assert parse_document(emit_document(doc)) == doc


def _assert_reads_as_the_reference(text):
    """``parse_document`` gives the names and graph, or the error message
    and line, of ``reference.line_by_line_document``."""
    try:
        names, _, ids = line_by_line_document(text)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            parse_document(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    doc = parse_document(text)
    assert doc.names == names
    assert doc.network == DiGraph(len(names), ids)


def _line_reader_called(*args):
    raise AssertionError("the EDGES block of a written document went to the line reader")


class TestRoundTrip:
    @given(documents(), st.data())
    def test_emit_parse_fixed_point(self, case, data):
        text, names, _ = case
        controls = data.draw(st.lists(st.sampled_from(names), unique=True))
        if controls:
            text += "CONTROLS\n" + " ".join(controls) + "\n"
        doc = parse_document(text)
        emitted = emit_document(doc)
        assert parse_document(emitted) == doc
        assert emit_document(parse_document(emitted)) == emitted

    @pytest.mark.parametrize("text", [RING, ANNOTATED], ids=["ring", "annotated"])
    def test_worked_documents_are_fixed_points(self, text):
        doc = parse_document(text)
        emitted = emit_document(doc)
        assert parse_document(emitted) == doc
        assert emit_document(parse_document(emitted)) == emitted

    def test_annotations_survive_reordering(self):
        shuffled = ANNOTATED.replace("a 1\nb 2\nc 3\n", "c 3\na 1\nb 2\n")
        doc = parse_document(shuffled)
        assert doc == parse_document(ANNOTATED)
        assert doc.chains.chains[0] == (1, 2, 3) and doc.times == {1: 1, 2: 2, 3: 3}
        assert emit_document(doc) == emit_document(parse_document(ANNOTATED))

    def test_from_graph_round_trip(self):
        doc = parse_document(ANNOTATED)
        rebuilt = NetworkDocument.from_graph(
            doc.network, doc.names, doc.controls, doc.time_function
        )
        assert rebuilt == doc
        assert emit_document(rebuilt) == emit_document(doc)

    def test_controls_section_optional(self):
        doc = parse_document("NODES\na b\nEDGES\na b\n")
        assert doc.controls == frozenset()
        assert parse_document(emit_document(doc)) == doc


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
        assert pieces == [DiGraph(3, [(1, 1)]), DiGraph(3, [(3, 1)])]

    def test_schedule_interval_count_checked(self):
        doc = parse_document(ANNOTATED)
        with pytest.raises(DocumentError, match="intervals expected"):
            parse_schedule_file("BREAKPOINTS\n0 1 2\nINTERVAL\n", doc)


@st.composite
def schedules(draw):
    """A family document, the breakpoints and per-piece edge lists of a
    schedule for it, and the schedule's text written canonically and in a
    layout the line reader accepts: comment lines, trailing comments,
    blank lines, tabs, other line breaks, breakpoints over several lines
    and a repeated edge in one INTERVAL."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tf = random_time_function(random_chain_set(n, draw(st.integers(1, n)), rng), rng)
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_.]{0,4}", fullmatch=True),
                          min_size=n, max_size=n, unique=True))
    doc = NetworkDocument.from_graph(tf.skeleton, names, tf.chains.sources, tf)
    optional = sorted(optional_edges(tf))
    k = draw(st.integers(1, 4))
    breakpoints = sorted(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=k + 1,
                                       max_size=k + 1, unique=True)))
    pieces = [draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
              for _ in range(k)]
    canonical = "BREAKPOINTS\n" + " ".join(map(repr, breakpoints)) + "\n" + "".join(
        "INTERVAL\n" + "".join(f"{names[u - 1]} {names[v - 1]}\n" for u, v in piece)
        for piece in pieces)

    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    aside = st.sampled_from(["", "   ", "# note", "\t# INTERVAL"])

    def line(tokens):
        text = draw(st.sampled_from(["", " ", "\t"])) + draw(gap).join(tokens)
        return text + (draw(gap) + "# " + " ".join(tokens) if draw(st.booleans()) else "")

    cut = draw(st.integers(1, k + 1))
    lines = [draw(aside), line(["BREAKPOINTS"]), line(list(map(repr, breakpoints[:cut])))]
    if cut <= k:
        lines.append(line(list(map(repr, breakpoints[cut:]))))
    for piece in pieces:
        lines.append(line(["INTERVAL"]))
        edges = list(piece)
        if edges and draw(st.booleans()):
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
        for u, v in edges:
            lines.append(line([names[u - 1], names[v - 1]]))
            if draw(st.integers(0, 3)) == 0:
                lines.append(draw(aside))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
    written = "".join(text + draw(breaks) for text in lines)
    return doc, breakpoints, pieces, canonical, written


class TestScheduleFile:
    @settings(max_examples=200)
    @given(schedules())
    def test_canonical_and_free_layouts_read_alike(self, case):
        doc, breakpoints, pieces, canonical, written = case
        n = len(doc.names)
        expected = (tuple(breakpoints), [DiGraph(n, piece) for piece in pieces])
        assert parse_schedule_file(written, doc) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(documents_module, "_read_edges", _line_reader_called)
            assert parse_schedule_file(canonical, doc) == expected

    # Every way a schedule can be malformed, with the message and line the
    # line-by-line reading gives: the first bad line wins, and lines are
    # counted as ``str.splitlines`` cuts them.
    @pytest.mark.parametrize("text, message", [
        ("0 1\nBREAKPOINTS\n0 1\nINTERVAL\n", "line 1: content before any schedule section"),
        ("# note\n\n  a b # c\nBREAKPOINTS\n0 1\nINTERVAL\n",
         "line 3: content before any schedule section"),
        ("BREAKPOINTS 0 1\nINTERVAL\n", "line 1: content before any schedule section"),
        ("INTERVAL\na b\nBREAKPOINTS\n0 1\n", "line 1: INTERVAL before BREAKPOINTS"),
        ("\n# c\n INTERVAL # first\nBREAKPOINTS\n0 1\n", "line 3: INTERVAL before BREAKPOINTS"),
        ("BREAKPOINTS\n0 1\nINTERVAL\nBREAKPOINTS\n0 1\n", "line 4: duplicate BREAKPOINTS section"),
        ("BREAKPOINTS\n0\n1 x\nINTERVAL\n", "line 3: breakpoints must be numbers"),
        ("BREAKPOINTS\n0 1 # a\n2#b\nINTERVAL\nINTERVAL\nc\n",
         "line 6: an interval edge line needs two node names"),
        ("BREAKPOINTS\n0 1\nINTERVAL\na\n", "line 4: an interval edge line needs two node names"),
        ("BREAKPOINTS\n0 1\nINTERVAL\nzz a b\n",
         "line 4: an interval edge line needs two node names"),
        ("BREAKPOINTS\n0 1\nINTERVAL\na b\n\nb zz\n", "line 6: unknown node name 'zz'"),
        ("BREAKPOINTS\n0 1\nINTERVAL\nINTERVAL a\n", "line 4: unknown node name 'INTERVAL'"),
        ("BREAKPOINTS\n0 1 2\nINTERVAL\na zz\nINTERVAL\nBREAKPOINTS\n",
         "line 4: unknown node name 'zz'"),
        ("BREAKPOINTS\nx\nINTERVAL\na\n", "line 2: breakpoints must be numbers"),
        ("BREAKPOINTS\r\n0 1\r\nINTERVAL\r\na b\r\nc\r\n",
         "line 5: an interval edge line needs two node names"),
        ("BREAKPOINTS\n0 1\x0cINTERVAL\u2028a\x1fb c\n",
         "line 4: an interval edge line needs two node names"),
        ("", "schedule needs at least two breakpoints"),
        ("# nothing\n", "schedule needs at least two breakpoints"),
        ("BREAKPOINTS\n0\n", "schedule needs at least two breakpoints"),
        ("BREAKPOINTS\n\nINTERVAL\n", "schedule needs at least two breakpoints"),
        ("BREAKPOINTS\n0 1 2\nINTERVAL\na b\n", "2 intervals expected, 1 declared"),
        ("BREAKPOINTS\n0 1\nINTERVAL\nINTERVAL\n", "1 intervals expected, 2 declared"),
    ])
    def test_malformed_schedules(self, text, message):
        doc = parse_document(ANNOTATED)
        with pytest.raises(DocumentError) as got:
            parse_schedule_file(text, doc)
        assert str(got.value) == message
        line = message.split(":")[0]
        assert got.value.line == (int(line[5:]) if line.startswith("line ") else None)

"""Command-line front end.

Subcommands: ``check`` (forcing verdict with intervals), ``robustness``
(critical additive/subtractive sets), ``combine`` (networks-of-networks,
general or DAG mode), ``oracle`` (numerical cross-validation, LTI or
LTV), and ``schedules`` (forcing schedules of one network, or layout
sequences for several).

Each command returns its exit code and one result: an ordered list of
fields, each a JSON key, its value and its text.  One of two writers
renders the result: ``--format machine`` writes the keyed values as one
JSON object with sorted keys, ``--format text`` writes the texts in list
order.  Large values stream to standard output in chunks.  A failure
is written to standard error, and only by ``main``.

Exit codes: 0 success/consistent, 2 negative domain verdict (not a
zero forcing set, rejected inter edge, infeasible sequence), 3 input
error, 4 internal inconsistency (the numerical oracle disagreeing with
the combinatorial verdict, or a numerical failure such as a linear
algebra routine not converging; must never happen).
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from numpy.linalg import LinAlgError

from .combine import (
    InfeasibleSequenceError,
    RejectedEdgeError,
    combine_dags,
    combine_networks,
    enumerate_sequences,
    max_inter_edges,
)
from .documents import (
    DocumentError,
    NetworkDocument,
    document_chunks,
    edge_lines,
    parse_document,
    parse_force_list,
    parse_inter_edges,
    parse_schedule_file,
)
from .forcing import (
    LOWEST_FORCED,
    LOWEST_FORCER,
    ForceListError,
    NotZfsError,
    forcing_schedule,
    schedule_gamma,
    schedule_leaves,
    stalled_white_set,
)
from .graphs import ConsistencyError, CyclicError, DiGraph, Edge, row_nodes
from .oracle import (
    InadmissibleEdgesError,
    ltv_gramian_rank,
    schedule_from_edges,
    verify_ssc_numeric,
)
from .robustness import (
    DEFAULT_BUDGET,
    critical_additive_set,
    critical_subtractive_set,
    verify_edge_set,
)

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

DEFAULT_SEED = 0
DEFAULT_TRIALS = 100

# One field of a command's result: (JSON key, value, text).  See _emit.
Field = tuple[str | None, object, object]
Result = tuple[int, list[Field]]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means a domain verdict here.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer option with the lower bound ``low``:
    0 for ``--seed`` (numpy seeds its generators from non-negative integers
    only) and ``--budget`` (a count of subsets), 1 for ``--trials`` and
    ``--limit``."""
    bound = "a non-negative integer" if low == 0 else f"an integer of at least {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from None


def _load_document(path: str) -> NetworkDocument:
    try:
        return parse_document(_read(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _policy(spec: str, doc: NetworkDocument, z: frozenset[int]):
    """The tie-break policy ``spec`` names.  A policy other than the two
    built-in ones is read only once the controls ``z`` are known to force
    everything, so a stall raises :class:`NotZfsError` first."""
    if spec == "lowest-forcer":
        return LOWEST_FORCER
    if spec == "lowest-forced":
        return LOWEST_FORCED
    stalled = stalled_white_set(doc.network, z)
    if stalled:
        raise NotZfsError(f"forcing stalled with white nodes {sorted(stalled)}", stalled)
    if spec.startswith("explicit:"):
        return parse_force_list(_read(spec[len("explicit:") :]), doc)
    raise DocumentError(
        f"unknown policy {spec!r}; use lowest-forcer, lowest-forced, or explicit:FILE"
    )


def _named_force_error(exc: ForceListError, spec: str, doc: NetworkDocument) -> DocumentError:
    """``exc`` in the user's names, after the force list file it came from."""
    if exc.force is not None:
        u, v = map(doc.name_of, exc.force)
        exc = f"force {u} -> {v} is not possible at step {exc.step}"
    return DocumentError(f"{spec[len('explicit:') :]}: {exc}")


def _require_controls(doc: NetworkDocument) -> frozenset[int]:
    if not doc.controls:
        raise DocumentError("document declares no control nodes")
    return doc.controls


class _Negative(Exception):
    """A negative verdict whose whole report is its message on standard
    error (exit 2)."""


def _not_zfs(path: str, doc: NetworkDocument, stalled: frozenset[int]) -> _Negative:
    """The report of the document at ``path`` whose controls leave ``stalled`` white."""
    names = " ".join(doc.name_of(v) for v in sorted(stalled))
    return _Negative(f"not a zero forcing set: {path}: stalled white set = {{{names}}}")


def _write(chunks: Iterable[str]) -> None:
    """Write the output chunk by chunk, so that a large one is never held whole."""
    sys.stdout.writelines(chunks)


def _emit(machine: bool, fields: Iterable[Field]) -> None:
    """Write a command's result: in machine format the fields that have a
    key, as one JSON object (:func:`_json`); in text format the texts that
    are not None, in order.  A text is a string or an iterable of string
    chunks.  A value or text that is a function of no arguments is called
    first, so the other format's side is never built.  An encoder of either
    format (:func:`_sorted_pairs`, :func:`_document`) is both sides at once.
    """
    if machine:
        _write(_json({
            key: value() if callable(value) else value
            for key, value, _ in fields if key is not None
        }))
        return
    for _, _, text in fields:
        if callable(text):
            text = text()
        if text is not None:
            _write([text] if isinstance(text, str) else text)


_ENCODE = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)


def _json(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, sort_keys=True)`` and a newline, in chunks: a
    value that is an iterator is written as the JSON chunks it yields, and
    each run of other values (in key order) is encoded in one call."""
    head, run = "{", {}
    for key in sorted(payload):
        value = payload[key]
        if not isinstance(value, Iterator):
            run[key] = value
            continue
        if run:
            head += _ENCODE(run)[1:-1] + ", "
            run = {}
        yield f"{head}{encode_basestring_ascii(key)}: "
        yield from value
        head = ", "
    yield (head + _ENCODE(run)[1:-1] if run else head.rstrip(", ")) + "}\n"


def _json_list(items: Iterable[str]) -> Iterator[str]:
    """The JSON list of ``items``, each already encoded, in chunks."""
    yield "["
    sep = ""
    for item in items:
        yield sep + item
        sep = ", "
    yield "]"


def _written_names(names: Sequence[str], machine: bool) -> tuple[str, ...]:
    """``("", *names)`` as written: JSON-encoded, once each, in machine
    format.  Index v holds node v's name."""
    return ("", *map(encode_basestring_ascii, names)) if machine else ("", *names)


def _sorted_pairs(
    graph: DiGraph, names: Sequence[str], written: Sequence[str], machine: bool
) -> Iterator[str]:
    """The edges of ``graph`` as name pairs sorted by name: a JSON list of
    pairs, or one ``  u v`` line each.

    The names are ranked once and the rows read in rank order, so the pairs
    are written straight from the rows and none is sorted.
    ``names[v - 1]`` names node v; ``written`` is from :func:`_written_names`.
    """
    n = graph.n
    order = sorted(range(1, n + 1), key=lambda v: names[v - 1])
    table = ("", *(written[v] for v in order))
    if order == list(range(1, n + 1)):  # the names sort in id order
        order = None
    if not machine:
        yield from edge_lines(graph.rows, table, "  ", order=order)
        return
    heads = (("[" + table[u] + ", ", nodes) for u, nodes in row_nodes(graph.rows, table, order))
    yield from _json_list(head + ("], " + head).join(nodes) + "]" for head, nodes in heads)


def _schedule_writer(
    names: Sequence[str], machine: bool, gamma: int
) -> Callable[[int, Sequence[Edge]], tuple[str, str]]:
    """One function that writes complete schedules with this ``gamma``, one
    after another, as a pair of texts: the forces, and their ``[t, tmax]``
    intervals.  It writes JSON values, the intervals keyed in name order as
    ``sort_keys`` orders them, or text, ``u>v`` forces and
    ``name:[t,tmax]`` in id order.

    A call passes ``shared``, how many leading forces its list has in common
    with the list of the call before (0 on the first call), and ``tail``,
    the forces after those.  The writer keeps the interval pieces and the
    force texts of the last list, so it rewrites only the entries of the
    forces after ``shared``.

    Controls turn black at step 1.  Force k (counted from 0) ``(w, u)``
    blackens u at step k + 2 and ends w's time as its chain's frontier at
    step k + 1; a node that never forces is a frontier until gamma.
    """
    n = len(names)
    written = _written_names(names, machine)
    # the force (w, u) is written forcer[w] + forced[u]
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
    forces: list[Edge] = []  # the last list, and its force texts
    listed: list[str] = []

    def write(shared: int, tail: Sequence[Edge]) -> tuple[str, str]:
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


def _document(written: Sequence[str], machine: bool, *parts) -> Iterator[str]:
    """:func:`document_chunks` of ``parts``, in machine format as a JSON string."""
    if not machine:
        yield from document_chunks(written, *parts)
        return
    yield '"'
    yield from document_chunks([q[1:-1] for q in written], *parts, newline="\\n")
    yield '"'


# -- check -----------------------------------------------------------------


def cmd_check(args) -> Result:
    doc = _load_document(args.document)
    g = doc.network
    z = _require_controls(doc)
    try:
        tf = forcing_schedule(g, z, _policy(args.policy, doc, z))
    except NotZfsError as exc:
        return _check_stalled(doc, exc.stalled_white)
    except ForceListError as exc:
        raise _named_force_error(exc, args.policy, doc) from None
    machine = args.format == "machine"
    forces, intervals = _schedule_writer(doc.names, machine, tf.gamma)(0, tf.forces)
    chains = [[doc.name_of(v) for v in c] for c in tf.chains.chains]
    return EXIT_OK, [
        ("zfs", True, "ZFS: yes\n"),
        ("derived", doc.names, lambda: f"derived set: {' '.join(doc.names)}\n"),
        ("intervals", iter([intervals]), ("intervals: ", intervals, "\n")),
        ("chains", chains, lambda: f"chains: {' | '.join('>'.join(c) for c in chains)}\n"),
        ("forces", iter([forces]), ("forces: ", forces, "\n")),
    ]


def _check_stalled(doc: NetworkDocument, stalled: frozenset[int]) -> Result:
    derived = [doc.name_of(v) for v in doc.network.nodes if v not in stalled]
    stalled_names = [doc.name_of(v) for v in sorted(stalled)]
    return EXIT_NEGATIVE, [
        ("zfs", False, "ZFS: no\n"),
        ("derived", derived, lambda: f"derived set: {' '.join(derived)}\n"),
        ("stalled_white", stalled_names,
         lambda: f"stalled white set = {{{' '.join(stalled_names)}}}\n"),
    ]


# -- robustness --------------------------------------------------------------


def cmd_robustness(args) -> Result:
    doc = _load_document(args.document)
    g = doc.network
    z = _require_controls(doc)
    critical_set = critical_additive_set if args.mode == "add" else critical_subtractive_set
    try:
        report = critical_set(g, z, _policy(args.policy, doc, z))
    except NotZfsError as exc:
        raise _not_zfs(args.document, doc, exc.stalled_white) from None
    except ForceListError as exc:
        raise _named_force_error(exc, args.policy, doc) from None
    machine = args.format == "machine"
    pairs = _sorted_pairs(report.graph, doc.names, _written_names(doc.names, machine), machine)
    tf = report.witness
    _, intervals = _schedule_writer(doc.names, machine, tf.gamma)(0, tf.forces)
    fields = [
        ("mode", args.mode,
         f"critical {'additive' if args.mode == 'add' else 'subtractive'} edge-set\n"),
        ("seed", args.seed, f"seed: {args.seed}\n"),
        ("count", report.cardinality, f"count: {report.cardinality} (bound {report.bound})\n"),
        ("bound", report.bound, None),
        ("intervals", iter([intervals]), ("intervals: ", intervals, "\n")),
        ("edges", pairs, chain(["edges:\n"], pairs)),
    ]
    if args.no_verify:
        return EXIT_OK, fields
    outcome = verify_edge_set(g, z, report, budget=args.budget, seed=args.seed)
    passed, tested = outcome.passed, outcome.subsets_tested
    fields.append((
        "verification",
        {"passed": passed, "exhaustive": outcome.exhaustive, "subsets_tested": tested},
        f"verification: {'pass' if passed else 'FAIL'} "
        f"({'exhaustive' if outcome.exhaustive else 'sampled'}, {tested} subsets)\n",
    ))
    return (EXIT_OK if passed else EXIT_INTERNAL), fields


# -- combine -----------------------------------------------------------------


def _parse_sequence(spec: str | None, counts: list[int], mode: str) -> tuple[int, ...]:
    if spec is None:
        return enumerate_sequences(counts, mode=mode, limit=1)[0]
    spec = spec.strip()
    if spec in ("", "-"):
        return ()
    entries = []
    for tok in spec.split(","):
        tok = tok.strip()
        try:
            idx = int(tok[1:] if tok[:1] in ("G", "g") else tok)
        except ValueError:
            raise DocumentError(f"bad sequence entry {tok!r}") from None
        if not 1 <= idx <= len(counts):
            raise DocumentError(
                f"sequence entry {idx} is not a document number in 1..{len(counts)}"
            )
        entries.append(idx - 1)
    return tuple(entries)


def _sequence_field(seq: Sequence[int]) -> Field:
    """A layout as 1-based document numbers, or ``-`` for the empty one."""
    return ("sequence", lambda: [i + 1 for i in seq],
            lambda: f"sequence: {','.join(str(i + 1) for i in seq) or '-'}\n")


def _combined_names(docs: Sequence[NetworkDocument]) -> list[str]:
    return [f"{i}.{name}" for i, doc in enumerate(docs, start=1) for name in doc.names]


def cmd_combine(args) -> Result:
    docs = [_load_document(p) for p in args.documents]
    if args.mode == "dag":
        if args.inter_edges:
            raise DocumentError("inter-edge files apply to general mode only")
        return _combine_dag(args, docs)
    blocks = []
    for path, doc in zip(args.documents, docs):
        tf = doc.time_function
        if tf is None:
            raise DocumentError(f"{path}: general combination needs CHAINS and TIMES")
        blocks.append((doc.network, tf))
    counts = [g.n - tf.m for g, tf in blocks]
    seq = _parse_sequence(args.sequence, counts, "general")
    inter = set()  # a repeated line is installed, and counted, once
    if args.inter_edges:
        for (di, dn), (dj, dm) in parse_inter_edges(_read(args.inter_edges), docs):
            off_i = sum(b[0].n for b in blocks[:di])
            off_j = sum(b[0].n for b in blocks[:dj])
            inter.add((off_i + docs[di].node_ids[dn], off_j + docs[dj].node_ids[dm]))
    names = _combined_names(docs)
    try:
        combined = combine_networks(blocks, seq, inter)
    except RejectedEdgeError as exc:
        u, v = (names[w - 1] for w in exc.edge)
        raise _Negative(
            f"rejected: edge ({u}, {v}): T_max({u})={exc.tmax_u} < T({v})={exc.t_v}"
        ) from None
    report = max_inter_edges(combined)
    machine = args.format == "machine"
    written = _written_names(names, machine)
    pairs = _sorted_pairs(report.graph, names, written, machine)
    tf = combined.times
    document = _document(
        written, machine, combined.graph.rows, sorted(combined.sources),
        tf.chains.chains, sorted(tf.times.items()),
    )
    return EXIT_OK, [
        ("mode", "general", None),
        _sequence_field(seq),
        ("accepted", True, None),
        ("installed_inter_edges", len(inter), f"installed inter edges: {len(inter)}\n"),
        ("max_inter_count", report.cardinality,
         f"largest admissible inter edge-set: {report.cardinality} (bound {report.bound})\n"),
        ("max_inter_bound", report.bound, None),
        ("max_inter", pairs, pairs),
        ("document", document, chain(["combined document:\n"], document)),
    ]


def _combine_dag(args, docs: Sequence[NetworkDocument]) -> Result:
    dags = [doc.network for doc in docs]
    counts = [g.n for g in dags]
    seq = _parse_sequence(args.sequence, counts, "dag")
    try:
        combo = combine_dags(dags, seq)
    except CyclicError as exc:
        named = [docs[exc.block].name_of(v) for v in exc.cycle]
        raise _Negative(
            f"infeasible: {args.documents[exc.block]}: "
            f"graph has a directed cycle through nodes {named}"
        ) from None
    # combined node ids are topological positions; name them after each
    # block's topological order
    names = [
        f"{i}.{doc.name_of(v)}"
        for i, (doc, order) in enumerate(zip(docs, combo.orders), start=1)
        for v in order
    ]
    machine = args.format == "machine"
    document = _document(
        _written_names(names, machine), machine, combo.graph.rows, [combo.control],
        [combo.spine], sorted(combo.times.items()),
    )
    control = names[combo.control - 1]
    return EXIT_OK, [
        ("mode", "dag", None),
        _sequence_field(seq),
        ("control", control, f"control node: {control}\n"),
        ("document", document, chain(["combined document:\n"], document)),
    ]


# -- oracle ------------------------------------------------------------------


def cmd_oracle(args) -> Result:
    if args.schedule is not None and not args.ltv:
        raise DocumentError("--schedule needs --ltv")
    if args.trials is not None and args.ltv:
        raise DocumentError("--trials needs the LTI oracle, not --ltv")
    doc = _load_document(args.document)
    g = doc.network
    z = _require_controls(doc)
    if args.ltv:
        return _oracle_ltv(args, doc, z)
    report = verify_ssc_numeric(g, z, trials=args.trials or DEFAULT_TRIALS, seed=args.seed)
    zfs = report.expected_zfs
    stalled = [doc.name_of(v) for v in sorted(report.stalled_white)]
    return (EXIT_OK if report.consistent else EXIT_INTERNAL), [
        ("seed", args.seed, f"seed: {args.seed}\n"),
        ("zfs", zfs, f"combinatorial verdict: {'ZFS' if zfs else 'not a ZFS'}\n"),
        ("trials", report.trials, None),
        ("full_rank", report.full_rank, f"full-rank samples: {report.full_rank}/{report.trials}\n"),
        ("consistent", report.consistent, f"consistent: {'yes' if report.consistent else 'NO'}\n"),
        ("stalled_white", stalled,
         None if zfs else lambda: f"stalled white set = {{{' '.join(stalled)}}}\n"),
        ("witness_rank", report.witness_rank,
         None if zfs else f"rank-deficient witness found (rank {report.witness_rank})\n"),
    ]


def _oracle_ltv(args, doc: NetworkDocument, z: frozenset[int]) -> Result:
    tf = doc.time_function
    if tf is None:
        raise DocumentError("LTV mode needs CHAINS and TIMES in the document")
    if not args.schedule:
        raise DocumentError("LTV mode needs --schedule FILE")
    breakpoints, per_interval = parse_schedule_file(_read(args.schedule), doc)
    try:
        sched = schedule_from_edges(tf, breakpoints, per_interval, seed=args.seed)
    except InadmissibleEdgesError as exc:
        named = sorted((doc.name_of(u), doc.name_of(v)) for u, v in exc.edges)
        raise DocumentError(f"edges {named} are not admissible for this family") from None
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    rank = ltv_gramian_rank(sched, z)
    n = tf.n
    covers = tf.chains.sources <= z
    # sources-covering controls are guaranteed full rank; anything else is
    # schedule-specific, so only report it
    consistent = rank == n or not covers
    return (EXIT_OK if consistent else EXIT_INTERNAL), [
        ("ltv", True, None),
        ("seed", args.seed, f"seed: {args.seed}\n"),
        ("gramian_rank", rank, f"gramian rank: {rank}/{n}\n"),
        ("nodes", n, None),
        ("controls_cover_sources", covers,
         f"controls cover the chain sources: {'yes' if covers else 'no'}\n"),
        ("consistent", consistent, f"consistent: {'yes' if consistent else 'NO'}\n"),
    ]


# -- schedules ---------------------------------------------------------------


def cmd_schedules(args) -> Result:
    docs = [_load_document(p) for p in args.documents]
    if len(docs) == 1:
        doc = docs[0]
        g = doc.network
        z = _require_controls(doc)
        # The count is written first, so the schedules are walked before any
        # is written; each keeps only its forces after those it shares.
        leaves = islice(schedule_leaves(g, z), args.limit)
        try:
            tails = [(shared, tuple(forces[shared:])) for shared, forces in leaves]
        except NotZfsError as exc:
            raise _not_zfs(args.documents[0], doc, exc.stalled_white) from None
        write = _schedule_writer(doc.names, args.format == "machine", schedule_gamma(g, z))
        texts = (write(*tail) for tail in tails)
        return EXIT_OK, [
            ("kind", "forcing", None),
            ("count", len(tails), f"forcing schedules: {len(tails)}\n"),
            ("schedules", _json_list('{"forces": %s, "intervals": %s}' % t for t in texts),
             ("  %s  |  %s\n" % t for t in texts)),
        ]
    if args.mode == "dag":
        counts = [len(doc.names) for doc in docs]
    else:
        counts = []
        for path, doc in zip(args.documents, docs):
            m = doc.chains.m if doc.chains is not None else len(doc.controls)
            if m == 0:
                raise DocumentError(
                    f"{path}: needs CHAINS or CONTROLS to size the sequence"
                )
            counts.append(len(doc.names) - m)
    seqs = enumerate_sequences(counts, mode=args.mode, limit=args.limit)
    return EXIT_OK, [
        ("kind", "sequences", None),
        ("mode", args.mode, None),
        ("count", len(seqs), f"sequences: {len(seqs)}\n"),
        ("sequences", lambda: [[i + 1 for i in s] for s in seqs],
         ("  " + ",".join(str(i + 1) for i in s) + "\n" for s in seqs)),
    ]


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssc-toolkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("check", help="forcing verdict with intervals")
    p.add_argument("document")
    p.add_argument("--policy", default="lowest-forcer")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("robustness", help="critical additive/subtractive edge-sets")
    p.add_argument("document")
    p.add_argument("--mode", choices=("add", "sub"), required=True)
    p.add_argument("--policy", default="lowest-forcer")
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--no-verify", action="store_true")
    common(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("combine", help="combine networks into one controlled network")
    p.add_argument("documents", nargs="+")
    p.add_argument("--mode", choices=("general", "dag"), default="general")
    p.add_argument("--sequence", default=None, help='e.g. "2,1,1,2"; "-" for empty')
    p.add_argument("--inter-edges", default=None)
    common(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("oracle", help="numerical cross-validation")
    p.add_argument("document")
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--ltv", action="store_true")
    p.add_argument("--schedule", default=None)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("schedules", help="forcing schedules or layout sequences")
    p.add_argument("documents", nargs="+")
    p.add_argument("--mode", choices=("general", "dag"), default="general")
    p.add_argument("--limit", type=_at_least(1), default=100)
    common(p)
    p.set_defaults(func=cmd_schedules)
    return parser


_PARSER = build_parser()  # built once per process: a build costs about 1 ms


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, fields = args.func(args)
        _emit(args.format == "machine", [("command", args.command, None), *fields])
        return code
    except _Negative as exc:
        print(exc, file=sys.stderr)
        return EXIT_NEGATIVE
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleSequenceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except LinAlgError as exc:  # a ValueError, but not bad input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

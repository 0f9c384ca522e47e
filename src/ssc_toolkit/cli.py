"""Command-line front end.

Subcommands: ``check`` (forcing verdict with intervals), ``robustness``
(critical additive/subtractive sets), ``combine`` (networks-of-networks,
general or DAG mode), ``oracle`` (numerical cross-validation, LTI or
LTV), and ``schedules`` (forcing schedules of one network, or layout
sequences for several).

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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from numpy.linalg import LinAlgError

from .combine import (
    CombineSequence,
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
    NotZfsError,
    enumerate_forcing_schedules,
    forcing_schedule,
    stalled_white_set,
)
from .graphs import ConsistencyError, CyclicError, DiGraph, Edge, mask_nodes
from .oracle import ltv_gramian_rank, schedule_from_edges, verify_ssc_numeric
from .robustness import (
    DEFAULT_BUDGET,
    critical_additive_set,
    critical_subtractive_set,
    verify_edge_set,
)
from .synthesis import TimeFunction

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

DEFAULT_SEED = 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means a domain verdict here.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _non_negative(text: str) -> int:
    """``--seed`` (numpy seeds its generators from non-negative integers
    only) and ``--budget`` (a count of subsets)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


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


def _policy(spec: str, doc: NetworkDocument):
    if spec == "lowest-forcer":
        return LOWEST_FORCER
    if spec == "lowest-forced":
        return LOWEST_FORCED
    if spec.startswith("explicit:"):
        return parse_force_list(_read(spec[len("explicit:") :]), doc)
    raise DocumentError(
        f"unknown policy {spec!r}; use lowest-forcer, lowest-forced, or explicit:FILE"
    )


def _require_controls(doc: NetworkDocument) -> frozenset[int]:
    if not doc.controls:
        raise DocumentError("document declares no control nodes")
    return doc.controls


def _intervals_text(doc: NetworkDocument, tf: TimeFunction) -> str:
    parts = [f"{doc.name_of(v)}:[{tf.times[v]},{tf.tmax[v]}]" for v in sorted(tf.times)]
    return " ".join(parts)


def _write(chunks: Iterable[str]) -> None:
    """Write the output chunk by chunk, so that a large one is never held whole."""
    sys.stdout.writelines(chunks)


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
    rows: Sequence[int], names: Sequence[str], written: Sequence[str], machine: bool
) -> Iterator[str]:
    """The edges of ``rows`` as name pairs sorted by name: a JSON list of
    pairs, or one ``  u v`` line each.

    The names are ranked once, the rows relabeled into rank order, and the
    pairs written straight from them, so no pair is sorted.  ``names[v - 1]``
    names node v, and ``written`` is from :func:`_written_names`.
    """
    n = len(names)
    order = sorted(range(1, n + 1), key=lambda v: names[v - 1])
    ranked = rows = (*rows, *(0,) * (n + 1 - len(rows)))
    if order != list(range(1, n + 1)):  # the names do not sort in id order
        ranked = DiGraph.from_rows(n, rows).relabeled(order).rows
    table = ("", *(written[v] for v in order))
    if not machine:
        yield from edge_lines(ranked, table, "  ")
        return
    heads = (("[" + table[u] + ", ", row) for u, row in enumerate(ranked) if row)
    yield from _json_list(
        head + ("], " + head).join([table[v] for v in mask_nodes(row)]) + "]" for head, row in heads
    )


class _Texts(dict):
    """A dict that fills in a missing key's value with ``make(key)``."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def _schedule_writer(
    names: Sequence[str], machine: bool, gamma: int
) -> Callable[[Sequence[Edge]], tuple[str, str]]:
    """A function that writes a force list of a complete schedule with this
    ``gamma``, and its ``[t, tmax]`` intervals, straight from the list: as
    JSON values, the intervals keyed in name order as ``sort_keys`` orders
    them, or as text, ``u>v`` forces and ``name:[t,tmax]`` in id order.

    Controls turn black at step 1.  Force k (counted from 0) ``(w, u)``
    blackens u at step k + 2 and ends w's time as its chain's frontier at
    step k + 1; a node that never forces is a frontier until gamma.
    """
    n = len(names)
    written = _written_names(names, machine)
    if machine:
        order = sorted(range(1, n + 1), key=lambda v: names[v - 1])
        colon, mid, sep, pair = ": [", ", ", ", ", "[{}, {}]"
    else:
        order, colon, mid, sep, pair = range(1, n + 1), ":[", ",", " ", "{}>{}"
    pairs = _Texts(lambda f: pair.format(written[f[0]], written[f[1]]))
    digits = [str(k) for k in range(gamma + 1)]
    pieces, at = [], [0] * (n + 1)  # node v's t is pieces[at[v]], its tmax pieces[at[v] + 2]
    for v in order:
        at[v] = len(pieces) + 1
        pieces += (written[v] + colon, "1", mid, digits[gamma], "]" + sep)
    pieces[-1] = "]"

    def write(forces: Sequence[Edge]) -> tuple[str, str]:
        numbered = pieces.copy()
        for k, (w, u) in enumerate(forces, 1):
            numbered[at[w] + 2] = digits[k]
            numbered[at[u]] = digits[k + 1]
        listed = sep.join(map(pairs.__getitem__, forces))
        if machine:
            return f"[{listed}]", "{" + "".join(numbered) + "}"
        return listed, "".join(numbered)

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


def cmd_check(args) -> int:
    doc = _load_document(args.document)
    g = doc.graph()
    z = _require_controls(doc)
    policy = args.policy
    try:
        if policy not in (LOWEST_FORCER, LOWEST_FORCED):
            # another policy is read only once the controls force everything
            stalled = stalled_white_set(g, z)
            if stalled:
                return _check_stalled(args, doc, stalled)
            policy = _policy(policy, doc)
        record = forcing_schedule(g, z, policy)
    except NotZfsError as exc:
        return _check_stalled(args, doc, exc.stalled_white)
    machine = args.format == "machine"
    forces, intervals = _schedule_writer(doc.names, machine, record.gamma)(record.forces)
    chains = [[doc.name_of(v) for v in c.nodes] for c in record.chains.chains]
    if machine:
        _write(_json({
            "command": "check",
            "zfs": True,
            "derived": list(doc.names),
            "intervals": iter([intervals]),
            "chains": chains,
            "forces": iter([forces]),
        }))
        return EXIT_OK
    _write([
        "ZFS: yes\n"
        f"derived set: {' '.join(doc.names)}\n"
        f"intervals: {intervals}\n"
        f"chains: {' | '.join('>'.join(c) for c in chains)}\n"
        f"forces: {forces}\n"
    ])
    return EXIT_OK


def _check_stalled(args, doc: NetworkDocument, stalled: frozenset[int]) -> int:
    derived = [doc.name_of(v) for v in doc.graph().nodes if v not in stalled]
    stalled_names = [doc.name_of(v) for v in sorted(stalled)]
    if args.format == "machine":
        _write(_json({
            "command": "check", "zfs": False, "derived": derived, "stalled_white": stalled_names,
        }))
    else:
        _write([
            "ZFS: no\n"
            f"derived set: {' '.join(derived)}\n"
            f"stalled white set = {{{' '.join(stalled_names)}}}\n"
        ])
    return EXIT_NEGATIVE


# -- robustness --------------------------------------------------------------


def cmd_robustness(args) -> int:
    doc = _load_document(args.document)
    g = doc.graph()
    z = _require_controls(doc)
    policy = _policy(args.policy, doc)
    try:
        if args.mode == "add":
            report = critical_additive_set(g, z, policy)
        else:
            report = critical_subtractive_set(g, z, policy)
    except NotZfsError as exc:
        print(f"not a zero forcing set: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    outcome = None
    if not args.no_verify:
        outcome = verify_edge_set(g, z, report, budget=args.budget, seed=args.seed)
    code = EXIT_INTERNAL if outcome is not None and not outcome.passed else EXIT_OK
    machine = args.format == "machine"
    pairs = _sorted_pairs(report.rows, doc.names, _written_names(doc.names, machine), machine)
    if machine:
        payload = {
            "command": "robustness",
            "mode": args.mode,
            "seed": args.seed,
            "count": report.cardinality,
            "bound": report.bound,
            "edges": pairs,
            "intervals": {
                doc.name_of(v): list(report.witness.interval(v))
                for v in sorted(report.witness.times)
            },
        }
        if outcome is not None:
            payload["verification"] = {
                "passed": outcome.passed,
                "exhaustive": outcome.exhaustive,
                "subsets_tested": outcome.subsets_tested,
            }
        _write(_json(payload))
        return code
    _write([
        f"critical {'additive' if args.mode == 'add' else 'subtractive'} edge-set\n"
        f"seed: {args.seed}\n"
        f"count: {report.cardinality} (bound {report.bound})\n"
        f"intervals: {_intervals_text(doc, report.witness)}\n"
        "edges:\n"
    ])
    _write(pairs)
    if outcome is not None:
        _write([
            f"verification: {'pass' if outcome.passed else 'FAIL'} "
            f"({'exhaustive' if outcome.exhaustive else 'sampled'}, "
            f"{outcome.subsets_tested} subsets)\n"
        ])
    return code


# -- combine -----------------------------------------------------------------


def _parse_sequence(spec: str | None, counts: list[int], mode: str) -> CombineSequence:
    if spec is None:
        return enumerate_sequences(counts, mode=mode, limit=1)[0]
    spec = spec.strip()
    if spec in ("", "-"):
        return CombineSequence(())
    entries = []
    for tok in spec.split(","):
        tok = tok.strip().lstrip("Gg")
        try:
            idx = int(tok)
        except ValueError:
            raise DocumentError(f"bad sequence entry {tok!r}") from None
        if not 1 <= idx <= len(counts):
            raise DocumentError(
                f"sequence entry {idx} is not a document number in 1..{len(counts)}"
            )
        entries.append(idx - 1)
    return CombineSequence(tuple(entries))


def _combined_names(docs: Sequence[NetworkDocument]) -> list[str]:
    return [f"{i}.{name}" for i, doc in enumerate(docs, start=1) for name in doc.names]


def cmd_combine(args) -> int:
    docs = [_load_document(p) for p in args.documents]
    if args.mode == "dag":
        if args.inter_edges:
            raise DocumentError("inter-edge files apply to general mode only")
        return _combine_dag(args, docs)
    blocks = []
    for path, doc in zip(args.documents, docs):
        tf = doc.time_function()
        if tf is None:
            raise DocumentError(f"{path}: general combination needs CHAINS and TIMES")
        blocks.append((doc.graph(), tf))
    counts = [g.n - tf.m for g, tf in blocks]
    seq = _parse_sequence(args.sequence, counts, "general")
    inter = []
    if args.inter_edges:
        for (di, dn), (dj, dm) in parse_inter_edges(_read(args.inter_edges), docs):
            off_i = sum(b[0].n for b in blocks[:di])
            off_j = sum(b[0].n for b in blocks[:dj])
            inter.append((off_i + docs[di].node_ids[dn], off_j + docs[dj].node_ids[dm]))
    names = _combined_names(docs)
    try:
        combined = combine_networks(blocks, seq, inter)
    except RejectedEdgeError as exc:
        u, v = exc.edge
        print(
            f"rejected: edge ({names[u - 1]}, {names[v - 1]}): "
            f"T_max({names[u - 1]})={exc.tmax_u} < T({names[v - 1]})={exc.t_v}",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    report = max_inter_edges(blocks, seq)
    machine = args.format == "machine"
    written = _written_names(names, machine)
    pairs = _sorted_pairs(report.rows, names, written, machine)
    tf = combined.times
    document = _document(
        written, machine, combined.graph.rows, sorted(combined.sources),
        [c.nodes for c in tf.chains.chains], sorted(tf.times.items()),
    )
    if machine:
        _write(_json({
            "command": "combine",
            "mode": "general",
            "sequence": [i + 1 for i in seq.entries],
            "accepted": True,
            "installed_inter_edges": len(inter),
            "max_inter_count": report.cardinality,
            "max_inter_bound": report.bound,
            "max_inter": pairs,
            "document": document,
        }))
        return EXIT_OK
    _write([
        f"sequence: {','.join(str(i + 1) for i in seq.entries) or '-'}\n"
        f"installed inter edges: {len(inter)}\n"
        f"largest admissible inter edge-set: {report.cardinality} (bound {report.bound})\n"
    ])
    _write(pairs)
    _write(["combined document:\n"])
    _write(document)
    return EXIT_OK


def _combine_dag(args, docs: Sequence[NetworkDocument]) -> int:
    dags = [doc.graph() for doc in docs]
    counts = [g.n for g in dags]
    try:
        seq = _parse_sequence(args.sequence, counts, "dag")
        combo = combine_dags(dags, seq)
    except (InfeasibleSequenceError, CyclicError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    # combined node ids are topological positions; name them through the
    # per-block inverse of the topological relabeling
    names: list[str] = []
    for i, doc in enumerate(docs, start=1):
        inverse = {idx: orig for orig, idx in combo.node_maps[i - 1].items()}
        names.extend(f"{i}.{doc.name_of(inverse[k])}" for k in range(1, dags[i - 1].n + 1))
    machine = args.format == "machine"
    document = _document(
        _written_names(names, machine), machine, combo.graph.rows, [combo.control],
        [combo.spine], sorted(combo.times.items()),
    )
    if machine:
        _write(_json({
            "command": "combine",
            "mode": "dag",
            "sequence": [i + 1 for i in seq.entries],
            "control": names[combo.control - 1],
            "document": document,
        }))
        return EXIT_OK
    _write([
        f"sequence: {','.join(str(i + 1) for i in seq.entries)}\n"
        f"control node: {names[combo.control - 1]}\n"
        "combined document:\n"
    ])
    _write(document)
    return EXIT_OK


# -- oracle ------------------------------------------------------------------


def cmd_oracle(args) -> int:
    if args.schedule is not None and not args.ltv:
        raise DocumentError("--schedule needs --ltv")
    doc = _load_document(args.document)
    g = doc.graph()
    z = _require_controls(doc)
    if args.ltv:
        return _oracle_ltv(args, doc, z)
    report = verify_ssc_numeric(g, z, trials=args.trials, seed=args.seed)
    code = EXIT_OK if report.consistent else EXIT_INTERNAL
    if args.format == "machine":
        _write(_json({
            "command": "oracle",
            "seed": args.seed,
            "zfs": report.expected_zfs,
            "trials": report.trials,
            "full_rank": report.full_rank,
            "consistent": report.consistent,
            "stalled_white": [doc.name_of(v) for v in sorted(report.stalled_white)],
            "witness_rank": report.witness_rank,
        }))
        return code
    lines = [
        f"seed: {args.seed}",
        f"combinatorial verdict: {'ZFS' if report.expected_zfs else 'not a ZFS'}",
        f"full-rank samples: {report.full_rank}/{report.trials}",
        f"consistent: {'yes' if report.consistent else 'NO'}",
    ]
    if not report.expected_zfs:
        lines.append(
            "stalled white set = {"
            + " ".join(doc.name_of(v) for v in sorted(report.stalled_white))
            + "}"
        )
        lines.append(f"rank-deficient witness found (rank {report.witness_rank})")
    _write(line + "\n" for line in lines)
    return code


def _oracle_ltv(args, doc: NetworkDocument, z: frozenset[int]) -> int:
    tf = doc.time_function()
    if tf is None:
        raise DocumentError("LTV mode needs CHAINS and TIMES in the document")
    if not args.schedule:
        raise DocumentError("LTV mode needs --schedule FILE")
    breakpoints, per_interval = parse_schedule_file(_read(args.schedule), doc)
    try:
        sched = schedule_from_edges(tf, breakpoints, per_interval, seed=args.seed)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    rank = ltv_gramian_rank(sched, z)
    n = tf.n
    covers = tf.chains.sources <= z
    # sources-covering controls are guaranteed full rank; anything else is
    # schedule-specific, so only report it
    consistent = rank == n or not covers
    if args.format == "machine":
        _write(_json({
            "command": "oracle",
            "ltv": True,
            "seed": args.seed,
            "gramian_rank": rank,
            "nodes": n,
            "controls_cover_sources": covers,
            "consistent": consistent,
        }))
    else:
        _write([
            f"seed: {args.seed}\n"
            f"gramian rank: {rank}/{n}\n"
            f"controls cover the chain sources: {'yes' if covers else 'no'}\n"
            f"consistent: {'yes' if consistent else 'NO'}\n"
        ])
    return EXIT_OK if consistent else EXIT_INTERNAL


# -- schedules ---------------------------------------------------------------


def cmd_schedules(args) -> int:
    docs = [_load_document(p) for p in args.documents]
    if len(docs) == 1:
        doc = docs[0]
        g = doc.graph()
        z = _require_controls(doc)
        try:
            records = enumerate_forcing_schedules(g, z, limit=args.limit)
        except NotZfsError as exc:
            print(f"not a zero forcing set: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
        machine = args.format == "machine"
        write = _schedule_writer(doc.names, machine, records[0].gamma)
        if machine:
            _write(_json({
                "command": "schedules",
                "kind": "forcing",
                "count": len(records),
                "schedules": _json_list(
                    '{"forces": %s, "intervals": %s}' % write(r.forces) for r in records
                ),
            }))
            return EXIT_OK
        _write([f"forcing schedules: {len(records)}\n"])
        _write("  %s  |  %s\n" % write(r.forces) for r in records)
        return EXIT_OK
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
    try:
        seqs = enumerate_sequences(counts, mode=args.mode, limit=args.limit)
    except InfeasibleSequenceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.format == "machine":
        _write(_json({
            "command": "schedules",
            "kind": "sequences",
            "mode": args.mode,
            "count": len(seqs),
            "sequences": [[i + 1 for i in s.entries] for s in seqs],
        }))
        return EXIT_OK
    _write([f"sequences: {len(seqs)}\n"])
    _write("  " + ",".join(str(i + 1) for i in s.entries) + "\n" for s in seqs)
    return EXIT_OK


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
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
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
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    p.add_argument("--ltv", action="store_true")
    p.add_argument("--schedule", default=None)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("schedules", help="forcing schedules or layout sequences")
    p.add_argument("documents", nargs="+")
    p.add_argument("--mode", choices=("general", "dag"), default="general")
    p.add_argument("--limit", type=int, default=100)
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
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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

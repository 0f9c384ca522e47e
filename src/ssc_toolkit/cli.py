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
    emit_document,
    parse_document,
    parse_force_list,
    parse_inter_edges,
    parse_schedule_file,
)
from .forcing import (
    LOWEST_FORCED,
    LOWEST_FORCER,
    NotZfsError,
    derived_set,
    enumerate_forcing_schedules,
    forcing_schedule,
)
from .graphs import ConsistencyError, CyclicError
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
    return doc.control_ids()


def _intervals_text(doc: NetworkDocument, tf: TimeFunction) -> str:
    parts = [f"{doc.name_of(v)}:[{tf.times[v]},{tf.tmax[v]}]" for v in sorted(tf.times)]
    return " ".join(parts)


def _chains_text(doc: NetworkDocument, tf: TimeFunction) -> str:
    return " | ".join(
        ">".join(doc.name_of(v) for v in c.nodes) for c in tf.chains.chains
    )


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "machine":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# -- check -----------------------------------------------------------------


def cmd_check(args) -> int:
    doc = _load_document(args.document)
    g = doc.graph()
    z = _require_controls(doc)
    derived = derived_set(g, z)
    if len(derived) < g.n:
        stalled = sorted(set(g.nodes) - derived)
        payload = {
            "command": "check",
            "zfs": False,
            "derived": [doc.name_of(v) for v in sorted(derived)],
            "stalled_white": [doc.name_of(v) for v in stalled],
        }
        text = (
            "ZFS: no\n"
            f"derived set: {' '.join(doc.name_of(v) for v in sorted(derived))}\n"
            f"stalled white set = {{{' '.join(doc.name_of(v) for v in stalled)}}}\n"
        )
        _emit(args, payload, text)
        return EXIT_NEGATIVE
    record = forcing_schedule(g, z, _policy(args.policy, doc))
    tf = TimeFunction.from_record(record)
    payload = {
        "command": "check",
        "zfs": True,
        "derived": [doc.name_of(v) for v in sorted(derived)],
        "intervals": {doc.name_of(v): list(tf.interval(v)) for v in sorted(tf.times)},
        "chains": [[doc.name_of(v) for v in c.nodes] for c in tf.chains.chains],
        "forces": [[doc.name_of(u), doc.name_of(v)] for u, v in record.forces],
    }
    text = (
        "ZFS: yes\n"
        f"derived set: {' '.join(doc.name_of(v) for v in sorted(derived))}\n"
        f"intervals: {_intervals_text(doc, tf)}\n"
        f"chains: {_chains_text(doc, tf)}\n"
        f"forces: {' '.join(doc.name_of(u) + '>' + doc.name_of(v) for u, v in record.forces)}\n"
    )
    _emit(args, payload, text)
    return EXIT_OK


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
    named = sorted(
        (doc.name_of(u), doc.name_of(v)) for u, v in report.edges
    )
    payload = {
        "command": "robustness",
        "mode": args.mode,
        "seed": args.seed,
        "count": report.cardinality,
        "bound": report.bound,
        "edges": [list(e) for e in named],
        "intervals": {
            doc.name_of(v): list(report.witness.interval(v))
            for v in sorted(report.witness.times)
        },
    }
    lines = [
        f"critical {'additive' if args.mode == 'add' else 'subtractive'} edge-set",
        f"seed: {args.seed}",
        f"count: {report.cardinality} (bound {report.bound})",
        f"intervals: {_intervals_text(doc, report.witness)}",
        "edges:",
    ]
    lines.extend(f"  {a} {b}" for a, b in named)
    if not args.no_verify:
        outcome = verify_edge_set(g, z, report, budget=args.budget, seed=args.seed)
        payload["verification"] = {
            "passed": outcome.passed,
            "exhaustive": outcome.exhaustive,
            "subsets_tested": outcome.subsets_tested,
        }
        lines.append(
            f"verification: {'pass' if outcome.passed else 'FAIL'} "
            f"({'exhaustive' if outcome.exhaustive else 'sampled'}, "
            f"{outcome.subsets_tested} subsets)"
        )
        if not outcome.passed:
            _emit(args, payload, "\n".join(lines))
            return EXIT_INTERNAL
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


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
    out_doc = NetworkDocument.from_graph(
        combined.graph, names, sorted(combined.sources), combined.times
    )
    report = max_inter_edges(blocks, seq)
    named_max = sorted((names[u - 1], names[v - 1]) for u, v in report.edges)
    payload = {
        "command": "combine",
        "mode": "general",
        "sequence": [i + 1 for i in seq.entries],
        "accepted": True,
        "installed_inter_edges": len(inter),
        "max_inter_count": report.cardinality,
        "max_inter_bound": report.bound,
        "max_inter": [list(e) for e in named_max],
        "document": emit_document(out_doc),
    }
    lines = [
        f"sequence: {','.join(str(i + 1) for i in seq.entries) or '-'}",
        f"installed inter edges: {len(inter)}",
        f"largest admissible inter edge-set: {report.cardinality} (bound {report.bound})",
    ]
    lines.extend(f"  {a} {b}" for a, b in named_max)
    lines.append("combined document:")
    lines.append(emit_document(out_doc))
    _emit(args, payload, "\n".join(lines))
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
    out_doc = NetworkDocument.from_graph(
        combo.graph, names, [combo.control], combo.time_function()
    )
    payload = {
        "command": "combine",
        "mode": "dag",
        "sequence": [i + 1 for i in seq.entries],
        "control": names[combo.control - 1],
        "document": emit_document(out_doc),
    }
    text = (
        f"sequence: {','.join(str(i + 1) for i in seq.entries)}\n"
        f"control node: {names[combo.control - 1]}\n"
        "combined document:\n" + emit_document(out_doc)
    )
    _emit(args, payload, text)
    return EXIT_OK


# -- oracle ------------------------------------------------------------------


def cmd_oracle(args) -> int:
    doc = _load_document(args.document)
    g = doc.graph()
    z = _require_controls(doc)
    if args.ltv:
        return _oracle_ltv(args, doc, z)
    report = verify_ssc_numeric(g, z, trials=args.trials, seed=args.seed)
    payload = {
        "command": "oracle",
        "seed": args.seed,
        "zfs": report.expected_zfs,
        "trials": report.trials,
        "full_rank": report.full_rank,
        "consistent": report.consistent,
        "stalled_white": [doc.name_of(v) for v in sorted(report.stalled_white)],
        "witness_rank": report.witness_rank,
    }
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
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.consistent else EXIT_INTERNAL


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
    payload = {
        "command": "oracle",
        "ltv": True,
        "seed": args.seed,
        "gramian_rank": rank,
        "nodes": n,
        "controls_cover_sources": covers,
        "consistent": consistent,
    }
    text = (
        f"seed: {args.seed}\n"
        f"gramian rank: {rank}/{n}\n"
        f"controls cover the chain sources: {'yes' if covers else 'no'}\n"
        f"consistent: {'yes' if consistent else 'NO'}\n"
    )
    _emit(args, payload, text)
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
        tfs = [TimeFunction.from_record(r) for r in records]
        if args.format == "machine":
            payload = {
                "command": "schedules",
                "kind": "forcing",
                "count": len(records),
                "schedules": [
                    {
                        "forces": [[doc.name_of(u), doc.name_of(v)] for u, v in r.forces],
                        "intervals": {
                            doc.name_of(v): list(tf.interval(v)) for v in sorted(r.times)
                        },
                    }
                    for r, tf in zip(records, tfs)
                ],
            }
            _emit(args, payload, "")
            return EXIT_OK
        lines = [f"forcing schedules: {len(records)}"]
        for r, tf in zip(records, tfs):
            lines.append(
                "  "
                + " ".join(doc.name_of(u) + ">" + doc.name_of(v) for u, v in r.forces)
                + "  |  "
                + _intervals_text(doc, tf)
            )
        _emit(args, {}, "\n".join(lines))
        return EXIT_OK
    if args.mode == "dag":
        counts = [len(doc.names) for doc in docs]
    else:
        counts = []
        for path, doc in zip(args.documents, docs):
            m = len(doc.chains) if doc.chains is not None else len(doc.controls)
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
    payload = {
        "command": "schedules",
        "kind": "sequences",
        "mode": args.mode,
        "count": len(seqs),
        "sequences": [[i + 1 for i in s.entries] for s in seqs],
    }
    lines = [f"sequences: {len(seqs)}"]
    lines.extend("  " + ",".join(str(i + 1) for i in s.entries) for s in seqs)
    _emit(args, payload, "\n".join(lines))
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

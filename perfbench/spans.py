"""Outside-in tracer: spans around calls into each layer's public functions.

``Tracer.install()`` replaces each wrapped function in every ``ssc_toolkit``
module namespace that holds it (``cli`` imports ``is_zfs``, ``robustness``
imports ``perfect_graph``, ...), so spans follow the CLI's real call path.
Nothing under ``src/`` changes; ``uninstall()`` puts the originals back.

A span records its name, layer, start, end, parent span and the id of the
CLI call it belongs to.  Spans stay in memory until ``dump()``.  A span's
self time is its duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property


def _len_text(tracer, args, kwargs, result):
    tracer.count("documents.parse_bytes", len(args[0]))


def _edges_built(tracer, args, kwargs, result):
    tracer.count("graphs.edges_built", len(args[0].edges))


def _zfs_call(tracer, args, kwargs, result):
    tracer.count("forcing.zfs_calls", 1)


def _forces(tracer, args, kwargs, result):
    tracer.count("forcing.forces_applied", len(result.forces))


def _records(tracer, args, kwargs, result):
    tracer.count("forcing.records_enumerated", len(result))


def _perfect(tracer, args, kwargs, result):
    tracer.count("synthesis.perfect_edges", result.edge_count)


def _verified(tracer, args, kwargs, result):
    tracer.count("robustness.verify_calls", 1)
    tracer.count("robustness.subsets_tested", result.subsets_tested)
    tracer.count("robustness.exhaustive_calls", int(result.exhaustive))


def _inter(tracer, args, kwargs, result):
    tracer.count("combine.inter_edges", result.cardinality)


def _lti(tracer, args, kwargs, result):
    tracer.count("oracle.draws", result.trials)
    if result.expected_zfs:
        tracer.count("oracle.zfs_draws", result.trials)
        tracer.count("oracle.full_rank_draws", result.full_rank)
    else:
        tracer.count("oracle.witness_searches", 1)
        tracer.count("oracle.witnesses_found", int(result.witness_rank is not None))


# (module, attribute, layer, span bucket, counter hook).  "Class.attr" names
# a method, classmethod or cached property patched on the class itself.
TARGETS = (
    ("documents", "parse_document", "documents", "documents.parse_s", _len_text),
    ("documents", "parse_force_list", "documents", "documents.parse_s", _len_text),
    ("documents", "parse_inter_edges", "documents", "documents.parse_s", _len_text),
    ("documents", "parse_schedule_file", "documents", "documents.parse_s", _len_text),
    ("documents", "emit_document", "documents", "documents.emit_s", None),
    ("documents", "NetworkDocument.from_graph", "documents", "documents.emit_s", None),
    ("documents", "NetworkDocument.graph", "graphs", "graphs.build_s", None),
    ("graphs", "DiGraph.__post_init__", "graphs", "graphs.build_s", _edges_built),
    ("graphs", "DiGraph.force_masks", "graphs", "graphs.masks_s", None),
    ("graphs", "topological_order", "graphs", "graphs.topo_s", None),
    ("forcing", "is_zfs", "forcing", "forcing.zfs_s", _zfs_call),
    ("forcing", "derived_set", "forcing", "forcing.zfs_s", _zfs_call),
    ("forcing", "forcing_schedule", "forcing", "forcing.schedule_s", _forces),
    ("forcing", "enumerate_forcing_schedules", "forcing", "forcing.enumerate_s", _records),
    ("synthesis", "perfect_graph", "synthesis", "synthesis.perfect_graph_s", _perfect),
    ("synthesis", "optional_edges", "synthesis", "synthesis.optional_edges_s", None),
    ("synthesis", "is_ct_constructed", "synthesis", "synthesis.ct_check_s", None),
    ("robustness", "critical_additive_set", "robustness", "robustness.critical_set_s", None),
    ("robustness", "critical_subtractive_set", "robustness", "robustness.critical_set_s", None),
    ("robustness", "verify_edge_set", "robustness", "robustness.verify_s", _verified),
    ("combine", "combine_networks", "combine", "combine.networks_s", None),
    ("combine", "max_inter_edges", "combine", "combine.max_inter_s", _inter),
    ("combine", "enumerate_sequences", "combine", "combine.sequences_s", None),
    ("combine", "combine_dags", "combine", "combine.dags_s", None),
    ("oracle", "verify_ssc_numeric", "oracle", "oracle.lti_s", _lti),
    ("oracle", "ltv_gramian_rank", "oracle", "oracle.ltv_s", None),
    ("oracle", "schedule_from_edges", "oracle", "oracle.ltv_schedule_s", None),
    ("cli", "main", "cli", "cli.self_s", None),
)

LAYERS = ("documents", "graphs", "forcing", "synthesis", "robustness", "combine", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (call, id, parent, bucket, layer, start, end)
        self.counters: Counter = Counter()
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.call_id = 0
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def _wrap(self, fn, layer: str, bucket: str, hook):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else (0, "")
            sid = next(ids)
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans.append((self.call_id, sid, parent[0], bucket, layer, start, end))
                if parent[1] != layer:  # count once, where it leaves the layer
                    self.errors[layer][type(exc).__name__] += 1
                raise
            end = clock()
            stack.pop()
            spans.append((self.call_id, sid, parent[0], bucket, layer, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "ssc_toolkit") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for modname, attr, layer, bucket, hook in TARGETS:
            home = sys.modules[f"{package}.{modname}"]
            if "." in attr:
                self._patch_class(home, attr, layer, bucket, hook)
                continue
            orig = getattr(home, attr)
            traced = self._wrap(orig, layer, bucket, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, traced)
                        self._undo.append((mod, name, orig))

    def _patch_class(self, home, attr, layer, bucket, hook) -> None:
        cls_name, name = attr.split(".")
        cls = getattr(home, cls_name)
        orig = cls.__dict__[name]
        if isinstance(orig, cached_property):
            new = cached_property(self._wrap(orig.func, layer, bucket, hook))
            new.__set_name__(cls, name)
        elif isinstance(orig, classmethod):
            new = classmethod(self._wrap(orig.__func__, layer, bucket, hook))
        else:
            new = self._wrap(orig, layer, bucket, hook)
        setattr(cls, name, new)
        self._undo.append((cls, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def begin_call(self) -> None:
        self.call_id += 1

    # -- reduction -----------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Summed self time per bucket, and summed inclusive time per bucket
        under the key ``<bucket>.inclusive``."""
        child_time: Counter = Counter()
        for _, _, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out: Counter = Counter()
        for _, sid, _, bucket, _, start, end in self.spans:
            out[bucket] += (end - start) - child_time[sid]
            out[bucket + ".inclusive"] += end - start
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for call, sid, parent, bucket, layer, start, end in self.spans:
                fh.write(json.dumps({
                    "call": call, "span": sid, "parent": parent, "name": bucket,
                    "layer": layer, "start": start, "end": end,
                }) + "\n")

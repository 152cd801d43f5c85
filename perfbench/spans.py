"""Out-of-tree tracing of ncl's layers, used only by the traced benchmark run.

The benchmark wraps the public functions and methods of every ncl layer
from outside the package. ``from .fields import kernel`` binds the name
when the importing module loads, so each ncl module namespace that holds
a traced function gets its own wrapper. A span is named
``<layer>.<function>@<namespace the name was looked up in>``, which
identifies the caller: ``fields.kernel@realization`` is the global
behavior build and ``realization.is_trim@reduction`` is a reduction pair
check. Methods are wrapped on their class, so they carry no caller.

Spans live in memory as ``[name_id, start_ns, end_ns, parent, op]`` lists
and are written as JSON lines when the run ends. Everything installed by
``Tracer.installed()`` is put back when the block exits.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

LAYERS = ("fields", "blockcode", "realization", "reduction", "constructions",
          "docio", "oracle", "cli")

# Public functions per defining module; every ncl namespace bound to one gets a wrapper.
FUNCTIONS = {
    "fields": ("rref", "rank", "kernel", "inverse", "complete_to_basis"),
    "realization": ("validate", "behavior", "realized_code", "unobservable_behavior",
                    "is_observable", "controllability_defect", "is_controllable",
                    "is_trim", "is_proper", "is_state_trim", "is_branch_trim",
                    "is_reduced", "dualize", "analyze"),
    "reduction": ("trim_state", "merge_state", "reduce_unobservable",
                  "dual_merge_unobservable", "next_reduction", "reduce_to_fixpoint",
                  "minimize_cycle_free", "cut_dims"),
    "constructions": ("generator_realization", "parity_check_realization",
                      "product_trellis", "is_tail_biting_trellis",
                      "trajectory_components"),
    "docio": ("parse_realization", "emit_realization", "parse_code_document",
              "export_dot"),
    "oracle": ("brute_behavior", "brute_realized_words", "check_realizes"),
    "cli": ("main",),
}

# Methods wrapped on their class: (module, class) -> names.
METHODS = {
    ("fields", "Subspace"): ("__init__", "spanned_by", "sum", "intersect",
                             "orthogonal", "contains"),
    ("blockcode", "BlockedCode"): ("project", "cross_section", "dual", "from_rows"),
    ("realization", "Realization"): ("ensure_valid",),
}

# Constructors counted without a span: a span each would cost more than the call.
COUNTED = {("fields", "MatrixF", "__init__"): "fields.matrix_inits"}

ELIMINATIONS = frozenset(FUNCTIONS["fields"])
PREDICATES = frozenset(("is_trim", "is_proper", "is_state_trim", "is_branch_trim"))
BUILDERS = frozenset(("generator_realization", "parity_check_realization",
                      "product_trellis"))
STEP_APPLIERS = frozenset(("trim_state", "merge_state", "reduce_unobservable"))
DRIVERS = frozenset(("reduce_to_fixpoint", "minimize_cycle_free"))
STEP_KINDS = {"trim": "reduction.steps_trim", "merge": "reduction.steps_merge",
              "unobservability-trim": "reduction.steps_unobs"}

SETUP_OP = -1


def split_name(name: str) -> tuple[str, str, str | None]:
    """'fields.kernel@realization' -> ('fields', 'kernel', 'realization')."""
    qual, _, caller = name.partition("@")
    layer, _, func = qual.partition(".")
    return layer, func, caller or None


def self_times(spans: Sequence[Sequence[int]]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    ``spans[i]`` is ``(start, end, parent)`` with ``parent`` an index into
    ``spans`` or -1. Children are clipped to their parent's interval and
    overlapping children are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        at = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, at), min(ce, end)
            if ce > cs:
                covered += ce - cs
                at = ce
        out.append(end - start - covered)
    return out


class Tracer:
    """Span recorder plus the per-op layer counters the benchmark reports."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.op = SETUP_OP
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        # span index of each minimize_cycle_free call -> (constraint, state) incidences
        self.minimize_incidences: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str,
             after: Callable[[tuple, object, int], None] | None = None) -> Callable:
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [nid, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(index)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, index)
            return result

        return traced

    def counting(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_hook(self, module: str, func: str, caller: str | None):
        counts, maxima = self.counts, self.maxima
        if module == "fields" and func in ELIMINATIONS:
            behavior = func == "kernel" and caller == "realization"

            def after(args, _result, _index):
                rows, cols = args[0].shape
                counts["fields.elim_calls"] += 1
                counts["fields.elim_cells"] += rows * cols
                if cols > maxima["fields.elim_max_cols"]:
                    maxima["fields.elim_max_cols"] = cols
                if behavior:
                    counts["realization.behavior_cols"] += cols
            return after
        if module == "fields" and func == "Subspace.__init__":
            def after(_args, _result, _index):
                counts["fields.subspace_inits"] += 1
            return after
        if module == "oracle" and func == "brute_behavior":
            def after(args, _result, _index):
                r = args[0]
                total = r.topology.total_symbol_dim() + r.topology.total_state_dim()
                counts["oracle.points"] += r.field.p ** total
            return after
        if module == "docio" and func in ("parse_realization", "parse_code_document"):
            def after(args, _result, _index):
                counts["docio.bytes_in"] += len(args[0])
            return after
        if module == "docio" and func in ("emit_realization", "export_dot"):
            def after(_args, result, _index):
                counts["docio.bytes_out"] += len(result)
            return after
        if module == "reduction" and func in DRIVERS:
            minimize = func == "minimize_cycle_free"

            def after(args, result, index):
                for step in result[1]:
                    counts[STEP_KINDS.get(step.kind, "reduction.steps_other")] += 1
                if minimize:
                    self.minimize_incidences[index] = 2 * len(args[0].topology.states)
            return after
        return None

    @contextmanager
    def installed(self, package=None):
        """Wrap every traced ncl name in place; restore all of them on exit."""
        if package is None:
            import ncl as package
        modules = ncl_modules(package)
        undo: list[tuple[object, str, object]] = []
        try:
            for mod_name, funcs in FUNCTIONS.items():
                home = modules[mod_name]
                for func in funcs:
                    original = getattr(home, func)
                    for ns_name, ns in modules.items():
                        if ns.__dict__.get(func) is not original:
                            continue
                        name = f"{mod_name}.{func}@{ns_name}"
                        wrapped = self.wrap(original, name,
                                            self._after_hook(mod_name, func, ns_name))
                        undo.append((ns, func, original))
                        setattr(ns, func, wrapped)
            for (mod_name, cls_name), meths in METHODS.items():
                cls = getattr(modules[mod_name], cls_name)
                for meth in meths:
                    raw = cls.__dict__[meth]
                    name = f"{mod_name}.{cls_name}.{meth}"
                    after = self._after_hook(mod_name, f"{cls_name}.{meth}", None)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(raw.__func__, name, after))
                    else:
                        wrapped = self.wrap(raw, name, after)
                    undo.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
            for (mod_name, cls_name, meth), key in COUNTED.items():
                cls = getattr(modules[mod_name], cls_name)
                raw = cls.__dict__[meth]
                undo.append((cls, meth, raw))
                setattr(cls, meth, self.counting(raw, key))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> int:
        """Write the spans held in memory as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[nid], "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")
        return len(self.spans)


def ncl_modules(package) -> dict[str, object]:
    """Short name -> module for the package and each loaded ncl submodule."""
    prefix = package.__name__ + "."
    out = {"ncl": package}
    for full, mod in list(sys.modules.items()):
        if full.startswith(prefix) and mod is not None:
            out[full[len(prefix):]] = mod
    return out


class LayerTotals:
    """Per-op layer metrics accumulated over the traced ops."""

    def __init__(self, tracer: Tracer, keep_spans: int) -> None:
        self.tracer = tracer
        self.keep_spans = keep_spans   # spans held for writing out; later ones are dropped
        self.ops = 0
        self.seconds: Counter = Counter()
        self._offset = 0

    def begin_op(self, op: int) -> None:
        self.tracer.op = op
        self._offset = len(self.tracer.spans)

    def end_op(self, keep: bool) -> None:
        """Fold the op's spans into the totals; keep them in memory if asked and room."""
        spans = self.tracer.spans
        self._fold(spans[self._offset:], self._offset)
        if not keep or len(spans) > self.keep_spans:
            del spans[self._offset:]

    def _fold(self, spans: Iterable[list[int]], offset: int) -> None:
        """Fold one op's spans (global indices start at ``offset``) into the totals."""
        spans = list(spans)
        names = self.tracer.names
        local = [(s[1], s[2], s[3] - offset if s[3] >= offset else -1) for s in spans]
        selfs = self_times(local)
        sec = self.seconds
        counts = self.tracer.counts
        parents = [names[spans[p][0]] if p >= 0 else None for _, _, p in local]
        minimize_pairs: Counter = Counter()
        minimize_spans = []
        for j, ((_, _, p), rec, self_ns, parent) in enumerate(zip(local, spans, selfs,
                                                                  parents)):
            name = names[rec[0]]
            dur = rec[2] - rec[1]
            layer, func, caller = split_name(name)
            sec[f"{layer}.self_s"] += self_ns
            if layer == "fields" and func == "kernel" and caller == "realization":
                counts["realization.behavior_builds"] += 1
                sec["realization.behavior_s"] += dur
            elif layer == "realization" and func in PREDICATES:
                counts["realization.predicate_calls"] += 1
                if caller == "reduction" and parent is not None:
                    p_layer, p_func, _ = split_name(parent)
                    if p_layer == "reduction" and p_func in ("next_reduction",
                                                             "minimize_cycle_free"):
                        counts["reduction.pairs_checked"] += 1
                        if p_func == "minimize_cycle_free":
                            minimize_pairs[p] += 1
            elif layer == "blockcode" and func == "BlockedCode.project":
                counts["blockcode.project_calls"] += 1
            elif layer == "blockcode" and func == "BlockedCode.cross_section":
                counts["blockcode.cross_section_calls"] += 1
            elif layer == "reduction" and func == "next_reduction":
                counts["reduction.scans"] += 1
            elif layer == "reduction" and func == "minimize_cycle_free":
                minimize_spans.append(j)
            elif layer == "reduction" and func in STEP_APPLIERS and parent is not None:
                if split_name(parent)[1] in DRIVERS:
                    sec["reduction.apply_s"] += dur
            elif layer == "constructions" and func == "trajectory_components":
                sec["constructions.components_s"] += dur
            elif layer == "docio" and func in ("parse_realization", "parse_code_document"):
                sec["docio.parse_s"] += dur
            elif layer == "docio" and func in ("emit_realization", "export_dot"):
                sec["docio.emit_s"] += dur
        # each pass of the cycle-free minimizer checks every (constraint, state) incidence once
        for j in minimize_spans:
            incidences = self.tracer.minimize_incidences.pop(offset + j, 0)
            if incidences:
                counts["reduction.scans"] += minimize_pairs[j] // incidences
        self.ops += 1

    def per_op(self) -> dict[str, float]:
        """Counts and seconds divided by the number of traced ops."""
        if not self.ops:
            raise ValueError("no traced ops")
        c = self.tracer.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.seconds[f"{layer}.self_s"] / 1e9 / self.ops
        for key in ("realization.behavior_s", "reduction.apply_s",
                    "constructions.components_s", "docio.parse_s", "docio.emit_s"):
            out[key] = self.seconds[key] / 1e9 / self.ops
        for key in ("fields.elim_calls", "fields.elim_cells", "fields.matrix_inits",
                    "fields.subspace_inits", "realization.behavior_builds",
                    "realization.predicate_calls", "blockcode.project_calls",
                    "blockcode.cross_section_calls", "reduction.pairs_checked",
                    "reduction.steps_trim", "reduction.steps_merge",
                    "reduction.steps_unobs", "oracle.points", "docio.bytes_in",
                    "docio.bytes_out"):
            out[key] = c[key] / self.ops
        out["reduction.scans"] = c["reduction.scans"] / self.ops
        local_steps = c["reduction.steps_trim"] + c["reduction.steps_merge"]
        out["reduction.useful_ratio"] = (local_steps / c["reduction.pairs_checked"]
                                         if c["reduction.pairs_checked"] else 0.0)
        builds = c["realization.behavior_builds"]
        out["realization.behavior_cols"] = (c["realization.behavior_cols"] / builds
                                            if builds else 0.0)
        out["fields.elim_max_cols"] = float(self.tracer.maxima["fields.elim_max_cols"])
        return out

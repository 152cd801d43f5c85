"""Command-line surface.

Exit codes: 0 success, 1 a verification found a mismatch, 2 invalid
input (bad document, invalid realization, cyclic input to minimize,
enumeration budget exceeded). With --json every result and error is a
machine-readable JSON object; errors go to stderr either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import constructions, docio, oracle, realization, reduction
from .blockcode import format_word
from .constructions import Span, SpannedGenerator
from .errors import DocumentError, EnumerationLimitError, InvalidRealizationError, NclError
from .fields import PrimeField
from .oracle import DEFAULT_MAX_POINTS, EnumerationBudget
from .realization import AnalysisReport, Realization


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load(path: str) -> Realization:
    r = docio.parse_realization(_read(path))
    r.ensure_valid()
    return r


def _budget_points(args: argparse.Namespace) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("NCL_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"NCL_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_MAX_POINTS


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _render_report(report: AnalysisReport) -> list[str]:
    lines = [f"field: GF({report.field_order})"]
    for name, dims, total in (
        ("symbols", report.symbol_dims, report.total_symbol_dim),
        ("states", report.state_dims, report.total_state_dim),
        ("constraints", report.constraint_dims, report.total_constraint_dim),
    ):
        shown = " ".join(f"{i}:{d}" for i, d in dims) or "(none)"
        lines.append(f"{name}: {shown} (total {total})")
    lines.append(f"behavior dim: {report.behavior_dim}")
    lines.append(f"realized dim: {report.realized_dim}")
    lines.append(f"unobservable dim: {report.unobservable_dim}")
    lines.append(f"controllability defect: {report.defect}")
    lines.append(f"observable: {_bool(report.observable)}")
    lines.append(f"controllable: {_bool(report.controllable)}")
    lines.append(f"state-trim: {_bool(report.state_trim)}")
    lines.append(f"branch-trim: {_bool(report.branch_trim)}")
    lines.append(f"reduced: {_bool(report.reduced)}")
    lines.append(f"cycle-free: {_bool(report.cycle_free)}")
    if report.minimal is None:
        lines.append("minimal: n/a (graph has cycles)")
    else:
        lines.append(f"minimal: {_bool(report.minimal)}")
    lines.append(f"trim-proper: {_bool(report.trim_proper)}")
    lines.append(f"locally reducible: {_bool(report.locally_reducible)}")
    for c in report.constraints:
        parts = []
        for t in c.trim:
            if t.ok:
                parts.append(f"trim {t.state_id}: ok")
            else:
                missing = "".join(str(x) for x in t.missing)
                parts.append(f"trim {t.state_id}: FAIL (value {missing} unreachable)")
        if c.proper.ok:
            parts.append("proper: ok")
        else:
            word = ",".join(str(x) for x in c.proper.codeword)
            parts.append(f"proper: FAIL (codeword {word} lives on {c.proper.state_id})")
        lines.append(f"constraint {c.id} (dim {c.dim}): " + "; ".join(parts))
    return lines


def _cmd_analyze(args: argparse.Namespace) -> int:
    many = len(args.file) > 1
    for path in args.file:
        report = realization.analyze(_load(path))
        if args.json:
            payload = report.to_dict()
            if many:
                payload = {"file": path, **payload}
            _emit_json(payload)
        else:
            if many:
                print(f"== {path}")
            print("\n".join(_render_report(report)))
    return 0


def _cmd_behavior(args: argparse.Namespace) -> int:
    many = len(args.file) > 1
    for path in args.file:
        r = _load(path)
        b = realization.behavior(r)
        rc = realization.realized_code(r)
        if args.json:
            payload = {
                "block_order": list(b.structure.ids()),
                "behavior_dim": b.dim,
                "behavior_generators": b.space.basis.tolist(),
                "realized_block_order": list(rc.structure.ids()),
                "realized_dim": rc.dim,
                "realized_generators": rc.space.basis.tolist(),
            }
            if many:
                payload = {"file": path, **payload}
            _emit_json(payload)
        else:
            if many:
                print(f"== {path}")
            print(f"behavior dim: {b.dim}")
            print("behavior blocks: " + " ".join(b.structure.ids()))
            for row in b.space.basis.array:
                print("  " + format_word(r.field, row))
            print(f"realized dim: {rc.dim}")
            print("realized blocks: " + " ".join(rc.structure.ids()))
            for row in rc.space.basis.array:
                print("  " + format_word(r.field, row))
    return 0


def _write_doc(args: argparse.Namespace, r: Realization,
               steps: list[reduction.ReductionStep] | None) -> int:
    text = docio.emit_realization(r)
    Path(args.out).write_text(text, encoding="utf-8")
    if args.json:
        payload: dict = {"written": args.out}
        if steps is not None:
            payload["steps"] = [
                {"kind": s.kind, "state": s.state_id, "constraint": s.constraint_id,
                 "old_dim": s.old_dim, "new_dim": s.new_dim,
                 "basis_change": s.basis_change.tolist()}
                for s in steps
            ]
        _emit_json(payload)
    else:
        if steps is not None and getattr(args, "steps", False):
            for s in steps:
                where = f" at {s.constraint_id}" if s.constraint_id else ""
                print(f"{s.kind} {s.state_id}: {s.old_dim} -> {s.new_dim}{where}")
        print(f"wrote {args.out}")
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    return _write_doc(args, realization.dualize(_load(args.infile)), None)


def _cmd_reduce(args: argparse.Namespace) -> int:
    reduced, steps = reduction.reduce_to_fixpoint(_load(args.infile))
    return _write_doc(args, reduced, steps)


def _cmd_minimize(args: argparse.Namespace) -> int:
    minimal, steps = reduction.minimize_cycle_free(_load(args.infile))
    return _write_doc(args, minimal, steps)


def _parse_build_rows(occurrences: list[str], p: int) -> list[list[int]]:
    rows = []
    for occ in occurrences:
        if p <= 10:
            for part in occ.split(","):
                part = part.strip()
                if not part or not part.isdigit():
                    raise ValueError(f"expected a digit string, got {part!r}")
                rows.append([int(ch) for ch in part])
        else:
            # residues can exceed one digit, so one row per occurrence
            rows.append([int(x) for x in occ.split(",")])
    return rows


def _parse_spans(occurrences: list[str]) -> list[Span]:
    spans = []
    for occ in occurrences:
        for part in occ.split(","):
            part = part.strip()
            if part == "deg":
                spans.append(Span(degenerate=True))
                continue
            try:
                a, b = part.split(":")
                spans.append(Span(int(a), int(b)))
            except ValueError:
                raise ValueError(
                    f"expected span 'start:end' or 'deg', got {part!r}") from None
    return spans


def _cmd_build(args: argparse.Namespace) -> int:
    field = PrimeField(args.field)
    if args.what == "generator":
        if not args.gens or args.spans:
            raise ValueError("generator build takes --gens and no --spans")
        r = constructions.generator_realization(
            field, args.n, _parse_build_rows(args.gens, field.p))
    elif args.what == "parity-check":
        if not args.checks or args.spans:
            raise ValueError("parity-check build takes --checks and no --spans")
        r = constructions.parity_check_realization(
            field, args.n, _parse_build_rows(args.checks, field.p))
    else:
        if not args.gens or not args.spans:
            raise ValueError("trellis build takes --gens and --spans")
        rows = _parse_build_rows(args.gens, field.p)
        spans = _parse_spans(args.spans)
        if len(rows) != len(spans):
            raise ValueError(
                f"{len(rows)} generators but {len(spans)} spans")
        gens = [SpannedGenerator(tuple(v), s) for v, s in zip(rows, spans)]
        r = constructions.product_trellis(field, args.n, gens, args.kind)
    text = docio.emit_realization(r)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if args.json:
            _emit_json({"written": args.out})
        else:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    points = _budget_points(args)
    many = len(args.file) > 1
    for path in args.file:
        r = _load(path)
        rep = constructions.trajectory_components(r, max_points=points)
        if args.json:
            payload = {
                "components": rep.count,
                "tail_biting": rep.tail_biting,
                "reduced": rep.reduced,
                "defect": rep.defect,
                "uncontrollable": rep.uncontrollable,
                "warning": rep.warning,
                "partition": [
                    {"state": sid, "value": list(value), "component": comp}
                    for sid, value, comp in rep.partition
                ],
            }
            if many:
                payload = {"file": path, **payload}
            _emit_json(payload)
        else:
            if many:
                print(f"== {path}")
            print(f"components: {rep.count}")
            print(f"tail-biting: {_bool(rep.tail_biting)}")
            print(f"reduced: {_bool(rep.reduced)}")
            print(f"defect: {rep.defect}")
            if rep.uncontrollable is None:
                print(f"uncontrollable: n/a ({rep.warning})")
            else:
                print(f"uncontrollable: {_bool(rep.uncontrollable)}")
            by_comp: dict[int, list[str]] = {}
            for sid, value, comp in rep.partition:
                shown = format_word(r.field, value) if value else "()"
                by_comp.setdefault(comp, []).append(f"{sid}={shown}")
            for comp in sorted(by_comp):
                print(f"component {comp}: " + " ".join(by_comp[comp]))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    budget = EnumerationBudget(_budget_points(args))
    expected = docio.parse_code_document(_read(args.expect)) if args.expect else None
    worst = 0
    many = len(args.file) > 1
    for path in args.file:
        r = _load(path)
        if expected is not None:
            verdict = oracle.check_realizes(r, expected, budget)
            ok = verdict.ok
            counter = verdict.counterexample
            what = "realized code matches the expected code"
        else:
            got = set(realization.behavior(r).enumerate(budget.max_points))
            want = set(oracle.brute_behavior(r, budget))
            ok = got == want
            counter = min(got ^ want) if not ok else None
            what = "behavior matches brute force"
        if args.json:
            payload: dict = {"ok": ok}
            if counter is not None:
                payload["counterexample"] = list(counter)
            if many:
                payload = {"file": path, **payload}
            _emit_json(payload)
        else:
            prefix = f"{path}: " if many else ""
            if ok:
                print(f"{prefix}ok: {what}")
            else:
                shown = format_word(r.field, counter)
                print(f"{prefix}MISMATCH: word {shown} separates the two")
        if not ok:
            worst = 1
    return worst


def _cmd_export_dot(args: argparse.Namespace) -> int:
    text = docio.export_dot(_load(args.file))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # built once; every main call reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncl",
        description="Build, analyze, dualize, and reduce linear realizations "
                    "of block codes on normal graphs over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("analyze", _cmd_analyze, help="dimensions, predicates, witnesses")
    p.add_argument("file", nargs="+")

    p = add("behavior", _cmd_behavior, help="behavior and realized-code generators")
    p.add_argument("file", nargs="+")

    p = add("dual", _cmd_dual, help="write the dual realization")
    p.add_argument("infile")
    p.add_argument("out")

    p = add("reduce", _cmd_reduce, help="trim/merge/unobservability fixpoint")
    p.add_argument("infile")
    p.add_argument("out")
    p.add_argument("--steps", action="store_true", help="log each reduction step")

    p = add("minimize", _cmd_minimize, help="cycle-free minimizer")
    p.add_argument("infile")
    p.add_argument("out")
    p.add_argument("--steps", action="store_true", help="log each reduction step")

    p = add("build", _cmd_build, help="construct a standard realization")
    p.add_argument("what", choices=["generator", "parity-check", "trellis"])
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", action="append", default=[],
                   help="generator rows; digit strings comma-separated for GF(p<=10), "
                        "else one comma-separated row per flag")
    p.add_argument("--checks", action="append", default=[],
                   help="check rows, same format as --gens")
    p.add_argument("--spans", action="append", default=[],
                   help="per-generator span 'start:end' or 'deg', comma-separated")
    p.add_argument("--kind", choices=["conventional", "tail-biting"],
                   default="tail-biting")
    p.add_argument("-o", "--out")

    p = add("components", _cmd_components, help="trajectory-graph connectivity")
    p.add_argument("file", nargs="+")
    p.add_argument("--budget", type=int)

    p = add("verify", _cmd_verify, help="brute-force oracle comparison")
    p.add_argument("file", nargs="+")
    p.add_argument("--expect", help="code document the realization must realize")
    p.add_argument("--budget", type=int)

    p = add("export-dot", _cmd_export_dot, help="Graphviz DOT of the graph")
    p.add_argument("file")
    p.add_argument("-o", "--out")

    return parser


def _fail(as_json: bool, tag: str, message: str) -> None:
    if as_json:
        sys.stderr.write(json.dumps({"error": {"type": tag, "message": message}}) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except DocumentError as e:
        _fail(as_json, "document", str(e))
        return 2
    except InvalidRealizationError as e:
        _fail(as_json, "invalid-realization", str(e))
        return 2
    except EnumerationLimitError as e:
        _fail(as_json, "budget", str(e))
        return 2
    except NclError as e:
        _fail(as_json, type(e).__name__, str(e))
        return 2
    except ValueError as e:
        _fail(as_json, "value", str(e))
        return 2
    except OSError as e:
        _fail(as_json, "io", str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())

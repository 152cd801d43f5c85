"""Command-line surface.

Each command computes its result once, as the dict that --json emits;
the text output is a formatting of that same dict. analyze, behavior,
components and verify share one loop over their files, and every
command that writes a file reports it through one helper.

Exit codes: 0 success (-h/--help included; under --json its text comes
as {"help": ...}), 1 a verification found a mismatch, 2 invalid
input (a command line that does not parse, bad document, invalid
realization, cyclic input to minimize, enumeration budget exceeded, an
expected code over another field or of another length). With --json
every result and error is a machine-readable JSON object; errors go to
stderr either way.

main runs the command with the cyclic garbage collector paused: the
command path makes no reference cycles, so a collection would free nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

from . import constructions, docio, oracle, realization, reduction
from .blockcode import DEFAULT_MAX_POINTS, format_word, parse_word
from .constructions import Span, SpannedGenerator
from .errors import DocumentError, EnumerationLimitError, InvalidRealizationError, NclError
from .fields import PrimeField
from .realization import Realization


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load(path: str) -> Realization:
    r = docio.parse_realization(_read(path))
    r.ensure_valid()
    return r


def _budget_points(args: argparse.Namespace) -> int:
    """The enumeration budget in points: --budget, else the default. The
    one place a budget is checked to be positive."""
    if args.budget is None:
        return DEFAULT_MAX_POINTS
    if args.budget <= 0:
        raise ValueError("budget must be positive")
    return args.budget


def _emit_json(payload: dict) -> None:
    print(docio._dumps(payload))


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _each_file(args: argparse.Namespace, result: Callable[[Realization], dict],
               lines: Callable[[dict, PrimeField], list[str]]) -> int:
    """Print one result per file: `result(r)` as JSON, or `lines` of it as text.

    The run stops at the first error. The exit code is 1 if any result
    has "ok": false, which only verify reports.
    """
    many = len(args.file) > 1
    worst = 0
    for path in args.file:
        r = _load(path)
        payload = result(r)
        if args.json:
            _emit_json({"file": path, **payload} if many else payload)
        else:
            text = lines(payload, r.field)
            if many and args.command == "verify":
                text = [f"{path}: {line}" for line in text]
            elif many:
                text = [f"== {path}", *text]
            print("\n".join(text))
        if payload.get("ok") is False:
            worst = 1
    return worst


# (text label, AnalysisReport.to_dict key) for the one-value report lines
_REPORT_LINES = (
    ("behavior dim", "behavior_dim"), ("realized dim", "realized_dim"),
    ("unobservable dim", "unobservable_dim"),
    ("controllability defect", "controllability_defect"),
    ("observable", "observable"), ("controllable", "controllable"),
    ("state-trim", "state_trim"), ("branch-trim", "branch_trim"),
    ("reduced", "reduced"), ("cycle-free", "cycle_free"), ("minimal", "minimal"),
    ("trim-proper", "trim_proper"), ("locally reducible", "locally_reducible"),
)


def _analyze_lines(d: dict, field: PrimeField) -> list[str]:
    lines = [f"field: GF({d['field']})"]
    for kind in ("symbol", "state", "constraint"):
        shown = " ".join(f"{v['id']}:{v['dim']}" for v in d[f"{kind}s"]) or "(none)"
        lines.append(f"{kind}s: {shown} (total {d[f'total_{kind}_dim']})")
    for label, key in _REPORT_LINES:
        value = d[key]
        if value is None:  # only minimal, on a graph with cycles
            value = "n/a (graph has cycles)"
        elif isinstance(value, bool):
            value = _bool(value)
        lines.append(f"{label}: {value}")
    for c in d["constraints"]:
        parts = []
        for t in c["trim"]:
            if t["ok"]:
                parts.append(f"trim {t['state']}: ok")
            else:
                missing = format_word(field, t["missing_value"])
                parts.append(f"trim {t['state']}: FAIL (value {missing} unreachable)")
        proper = c["proper"]
        if proper["ok"]:
            parts.append("proper: ok")
        else:
            word = ",".join(str(x) for x in proper["codeword"])
            parts.append(f"proper: FAIL (codeword {word} lives on {proper['state']})")
        lines.append(f"constraint {c['id']} (dim {c['dim']}): " + "; ".join(parts))
    return lines


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _each_file(args, lambda r: realization.analyze(r).to_dict(), _analyze_lines)


def _behavior_result(r: Realization) -> dict:
    b = realization.behavior(r)
    rc = realization.realized_code(r)
    return {
        "block_order": list(b.structure.ids()),
        "behavior_dim": b.dim,
        "behavior_generators": b.space.basis.tolist(),
        "realized_block_order": list(rc.structure.ids()),
        "realized_dim": rc.dim,
        "realized_generators": rc.space.basis.tolist(),
    }


def _behavior_lines(d: dict, field: PrimeField) -> list[str]:
    lines = []
    for code, order in (("behavior", "block_order"), ("realized", "realized_block_order")):
        lines.append(f"{code} dim: {d[f'{code}_dim']}")
        lines.append(f"{code} blocks: " + " ".join(d[order]))
        lines.extend("  " + format_word(field, row) for row in d[f"{code}_generators"])
    return lines


def _cmd_behavior(args: argparse.Namespace) -> int:
    return _each_file(args, _behavior_result, _behavior_lines)


def _write(args: argparse.Namespace, text: str, extra: dict | None = None,
           lines: Sequence[str] = ()) -> int:
    """Write text to args.out, then print the lines and `wrote X`, or under
    --json the object {"written": X, **extra}."""
    Path(args.out).write_text(text, encoding="utf-8")
    if args.json:
        _emit_json({"written": args.out, **(extra or {})})
    else:
        print("\n".join([*lines, f"wrote {args.out}"]))
    return 0


def _write_steps(args: argparse.Namespace, r: Realization,
                 steps: list[reduction.ReductionStep]) -> int:
    payload = [{"kind": s.kind, "state": s.state_id, "constraint": s.constraint_id,
                "old_dim": s.old_dim, "new_dim": s.new_dim,
                "basis_change": s.basis_change.tolist()} for s in steps]
    lines = [f"{d['kind']} {d['state']}: {d['old_dim']} -> {d['new_dim']}"
             + (f" at {d['constraint']}" if d["constraint"] is not None else "")
             for d in payload] if args.steps else []
    return _write(args, docio.emit_realization(r), {"steps": payload}, lines)


def _cmd_dual(args: argparse.Namespace) -> int:
    return _write(args, docio.emit_realization(realization.dualize(_load(args.infile))))


def _cmd_reduce(args: argparse.Namespace) -> int:
    return _write_steps(args, *reduction.reduce_to_fixpoint(_load(args.infile)))


def _cmd_minimize(args: argparse.Namespace) -> int:
    return _write_steps(args, *reduction.minimize_cycle_free(_load(args.infile)))


def _parse_build_rows(occurrences: list[str], field: PrimeField) -> list[list[int]]:
    """Rows as residues: comma-separated digit strings for GF(p <= 10),
    else one comma-separated row per occurrence."""
    if field.p > 10:
        # residues can exceed one digit, so one row per occurrence
        return [list(parse_word(field, occ)) for occ in occurrences]
    rows = []
    for occ in occurrences:
        for part in occ.split(","):
            part = part.strip()
            if not part.isdigit():
                raise ValueError(f"expected a digit string, got {part!r}")
            rows.append(list(parse_word(field, part)))
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
            field, args.n, _parse_build_rows(args.gens, field))
    elif args.what == "parity-check":
        if not args.checks or args.spans:
            raise ValueError("parity-check build takes --checks and no --spans")
        r = constructions.parity_check_realization(
            field, args.n, _parse_build_rows(args.checks, field))
    else:
        if not args.gens or not args.spans:
            raise ValueError("trellis build takes --gens and --spans")
        rows = _parse_build_rows(args.gens, field)
        spans = _parse_spans(args.spans)
        if len(rows) != len(spans):
            raise ValueError(
                f"{len(rows)} generators but {len(spans)} spans")
        gens = [SpannedGenerator(tuple(v), s) for v, s in zip(rows, spans)]
        r = constructions.product_trellis(field, args.n, gens, args.kind)
    text = docio.emit_realization(r)
    if args.out:
        return _write(args, text)
    sys.stdout.write(text)
    return 0


def _components_result(r: Realization, points: int) -> dict:
    rep = constructions.trajectory_components(r, max_points=points)
    return {
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


def _components_lines(d: dict, field: PrimeField) -> list[str]:
    if d["uncontrollable"] is None:
        uncontrollable = f"n/a ({d['warning']})"
    else:
        uncontrollable = _bool(d["uncontrollable"])
    lines = [f"components: {d['components']}",
             f"tail-biting: {_bool(d['tail_biting'])}",
             f"reduced: {_bool(d['reduced'])}",
             f"defect: {d['defect']}",
             f"uncontrollable: {uncontrollable}"]
    by_comp: dict[int, list[str]] = {}
    for e in d["partition"]:
        shown = format_word(field, e["value"]) if e["value"] else "()"
        by_comp.setdefault(e["component"], []).append(f"{e['state']}={shown}")
    lines.extend(f"component {comp}: " + " ".join(by_comp[comp]) for comp in sorted(by_comp))
    return lines


def _cmd_components(args: argparse.Namespace) -> int:
    points = _budget_points(args)
    return _each_file(args, lambda r: _components_result(r, points), _components_lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    points = _budget_points(args)
    expected = docio.parse_code_document(_read(args.expect)) if args.expect else None

    def result(r: Realization) -> dict:
        if expected is not None:
            verdict = oracle.check_realizes(r, expected, points)
            ok, counter = verdict.ok, verdict.counterexample
        else:
            got = set(realization.behavior(r).enumerate(points))
            want = set(oracle.brute_behavior(r, points))
            ok = got == want
            counter = min(got ^ want) if not ok else None
        payload: dict = {"ok": ok}
        if counter is not None:
            payload["counterexample"] = list(counter)
        return payload

    def lines(d: dict, field: PrimeField) -> list[str]:
        if not d["ok"]:
            shown = format_word(field, d["counterexample"])
            return [f"MISMATCH: word {shown} separates the two"]
        if expected is not None:
            return ["ok: realized code matches the expected code"]
        return ["ok: behavior matches brute force"]

    return _each_file(args, result, lines)


def _cmd_export_dot(args: argparse.Namespace) -> int:
    text = docio.export_dot(_load(args.file))
    if args.out:
        return _write(args, text)
    if args.json:
        _emit_json({"dot": text})
    else:
        sys.stdout.write(text)
    return 0


class _UsageError(Exception):
    """A command line the parser answers itself: a rejected one (exit 2)
    or a -h/--help request (exit 0, with `message` None). main reports
    both, as argparse's text or under --json as one JSON object."""

    def __init__(self, text: str, message: str | None = None) -> None:
        super().__init__(message)
        self.text = text
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage or help and
    exit; its subparsers are built from this class too."""

    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n", message)

    def print_help(self, file=None):
        raise _UsageError(self.format_help())


@functools.cache  # built once; every main call reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


# exception type -> error tag, first match wins; None tags with the class name
_ERROR_TAGS = (
    (DocumentError, "document"),
    (InvalidRealizationError, "invalid-realization"),
    (EnumerationLimitError, "budget"),
    (NclError, None),
    (ValueError, "value"),
    (OSError, "io"),
)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        # argparse's own text, or under --json one JSON object: the help on
        # stdout, a usage error on stderr
        json_out = "--json" in argv
        if e.message is None:
            if json_out:
                _emit_json({"help": e.text})
            else:
                sys.stdout.write(e.text)
            return 0
        if json_out:
            sys.stderr.write(json.dumps({"error": {"type": "usage", "message": e.message}}) + "\n")
        else:
            sys.stderr.write(e.text)
        return 2
    paused = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _ERROR_TAGS) as e:
        tag = next(tag for cls, tag in _ERROR_TAGS if isinstance(e, cls)) or type(e).__name__
        if args.json:
            sys.stderr.write(json.dumps({"error": {"type": tag, "message": str(e)}}) + "\n")
        else:
            sys.stderr.write(f"error: {e}\n")
        return 2
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

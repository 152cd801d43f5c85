"""blockcode._trusted builds a frozen dataclass with none of its
__post_init__ checks, so only code that has checked the values itself
may use it: docio.parse_realization, which checks every field it reads,
and Realization._with_state, which changes one state's dim of a valid
realization. An ast check, like tests/test_settings.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncl"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"docio.parse_realization", "realization.Realization._with_state"}


def trusted_uses(module: str, source: str) -> list[str]:
    """The scope (module, then classes and functions) of each read of the
    name _trusted, bare or as an attribute, in source order; calling it or
    handing it on both count."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if ((isinstance(child, ast.Name) and child.id == "_trusted"
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == "_trusted")):
                found.append((child.lineno, child.col_offset, inner))
            visit(child, inner)

    visit(ast.parse(source), module)
    return [scope for _, _, scope in sorted(found)]


def uses_in_src() -> list[str]:
    return [scope for path in MODULES
            for scope in trusted_uses(path.stem, path.read_text(encoding="utf-8"))]


def test_only_the_checked_paths_use_trusted():
    uses = uses_in_src()
    assert set(uses) == ALLOWED  # each allowed path uses it, and no other does


def test_a_use_elsewhere_is_reported():
    source = ("from .blockcode import _trusted\nfrom . import blockcode\n"
              "def parse_realization(text):\n    return _trusted(C, id=text)\n"
              "class Topology:\n    def grow(self):\n        make = blockcode._trusted\n"
              "        return make(C)\n")
    assert trusted_uses("docio", source) == ["docio.parse_realization",
                                             "docio.Topology.grow"]

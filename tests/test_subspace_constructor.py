"""Every subspace the package derives is built by one constructor:
`fields._kept_space` over GF(2) and GF(3), which keeps the bit rows it
wrote the basis from, and `fields._vanishing` over p >= 5. No other
scope of src/ncl calls Subspace(...), bare or as an attribute. An ast
check, like tests/test_trusted.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncl"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"fields._kept_space", "fields._vanishing"}


def subspace_calls(module: str, source: str) -> list[str]:
    """The scope (module, then classes and functions) of each call of the
    name Subspace, bare or as an attribute, in source order."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and (
                    (isinstance(child.func, ast.Name) and child.func.id == "Subspace")
                    or (isinstance(child.func, ast.Attribute) and child.func.attr == "Subspace")):
                found.append((child.lineno, child.col_offset, inner))
            visit(child, inner)

    visit(ast.parse(source), module)
    return [scope for _, _, scope in sorted(found)]


def test_only_the_two_constructors_call_subspace():
    calls = {scope for path in MODULES
             for scope in subspace_calls(path.stem, path.read_text(encoding="utf-8"))}
    assert calls == ALLOWED  # each constructor calls it, and no other scope does


def test_a_call_elsewhere_is_reported():
    source = ("from .fields import Subspace\nfrom . import fields\n"
              "def _vanishing(field, a, skip=0):\n    return Subspace(field, 0, a)\n"
              "class BlockedCode:\n    def project(self, ids):\n"
              "        return fields.Subspace(self.field, len(ids), self.basis)\n"
              "    def named(self):\n        return Subspace.spanned_by(self.field, 0, [])\n")
    assert subspace_calls("fields", source) == ["fields._vanishing",
                                                "fields.BlockedCode.project"]

"""Every subspace the package derives is built complete by one unchecked
constructor, `fields._canonical`, which only `fields._kept_space` (over
GF(2) and GF(3), with the bit rows it wrote the basis from) and
`fields._vanishing` (over p >= 5) call. No scope of src/ncl calls the
checking Subspace(...), bare or as an attribute. An ast check, like
tests/test_trusted.py."""

import ast

from helpers import scoped_hits, scoped_hits_in_src

ALLOWED = {"fields._kept_space", "fields._vanishing"}


def calls_of(name: str):
    """Whether a node is a call of the name, bare or as an attribute."""
    def hit(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name))
    return hit


def test_only_kept_space_and_vanishing_call_canonical():
    assert set(scoped_hits_in_src(calls_of("_canonical"))) == ALLOWED


def test_no_scope_calls_subspace():
    assert scoped_hits_in_src(calls_of("Subspace")) == []


def test_a_call_elsewhere_is_reported():
    source = ("from .fields import Subspace\nfrom . import fields\n"
              "def _vanishing(field, a, skip=0):\n    return _canonical(field, a, ())\n"
              "class BlockedCode:\n    def project(self, ids):\n"
              "        return fields._canonical(self.field, self.basis, ())\n"
              "    def named(self):\n        return Subspace.spanned_by(self.field, 0, [])\n"
              "    def checked(self):\n        return Subspace(self.field, 0, self.basis)\n")
    assert scoped_hits("fields", source, calls_of("_canonical")) == [
        "fields._vanishing", "fields.BlockedCode.project"]
    assert scoped_hits("fields", source, calls_of("Subspace")) == [
        "fields.BlockedCode.checked"]

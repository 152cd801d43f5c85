"""An object is complete when its constructor returns: outside
`__init__`, `__post_init__` and the two unchecked constructors
`fields._held` and `fields._canonical`, no code in src/ncl assigns an
attribute of any object but `self`, by an assignment or by `setattr`.
A derived Realization gets its findings through `blockcode._trusted`,
not by a write into its `_issues` after construction. An ast check, like
tests/test_trusted.py."""

import ast

from helpers import scoped_hits, scoped_hits_in_src

CONSTRUCTORS = {"__init__", "__post_init__", "_held", "_canonical"}


def is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def writes_another_object(node: ast.AST) -> bool:
    """An attribute assigned, augmented or bound as a loop or with target
    on an object other than self, or set by setattr or __setattr__ on one."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.ctx, ast.Store) and not is_self(node.value)
    return (isinstance(node, ast.Call) and bool(node.args) and not is_self(node.args[0])
            and ((isinstance(node.func, ast.Name) and node.func.id == "setattr")
                 or (isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")))


def outside_constructors(scopes: list[str]) -> list[str]:
    return [scope for scope in scopes if scope.rsplit(".", 1)[-1] not in CONSTRUCTORS]


def test_only_constructors_write_into_another_object():
    assert outside_constructors(scoped_hits_in_src(writes_another_object)) == []


def test_the_constructors_do_write_into_the_object_they_build():
    # the exemption is used: _held and _canonical fill the object they made
    assert {"fields._held", "fields._canonical"} <= set(scoped_hits_in_src(writes_another_object))


def test_a_late_write_is_reported():
    source = ("def parse(text):\n    r = Realization(f, t, c)\n    r._issues = ()\n"
              "    return r\n"
              "def _kept_space(field, kept, n):\n    space = Subspace(field, n, b)\n"
              "    space._bits, n = rows, 0\n    setattr(space, '_bits', rows)\n"
              "    object.__setattr__(space, '_bits', rows)\n    space.count += 1\n"
              "class Realization:\n    def __init__(self, f):\n        self.field = f\n"
              "        other.field = f\n"
              "    def _fill(self):\n        self._issues = ()\n        self.topology.n = 0\n"
              "        setattr(self, 'x', 1)\n"
              "def _held(field, a):\n    m = MatrixF.__new__(MatrixF)\n    m._a = a\n"
              "    return m\n")
    assert outside_constructors(scoped_hits("realization", source, writes_another_object)) == [
        "realization.parse", "realization._kept_space", "realization._kept_space",
        "realization._kept_space", "realization._kept_space",
        "realization.Realization._fill"]

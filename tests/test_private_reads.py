"""Every single-underscore function, method or class defined in src/ncl is
read, as a load, somewhere in src/ncl: a lint check by ast, since a private
definition that nothing in the library reads is dead code kept alive only
by the tests that call it. A read is matched by name (a bare name or an
attribute), so a private name read anywhere in the package counts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncl"


def private_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each function, method or class whose name starts with
    one underscore, in line order; dunders are the language's, not the package's."""
    found = [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")]
    return [(name, line) for line, name in sorted(found)]


def loaded_names(source: str) -> set[str]:
    """Every name the source reads: bare names and attributes in a load."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name (line) of each private definition no source reads."""
    read = set().union(*map(loaded_names, sources.values()))
    return [f"{module}:{name} (line {line})" for module, source in sources.items()
            for name, line in private_definitions(source) if name not in read]


def test_every_private_definition_in_src_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sum(len(private_definitions(s)) for s in sources.values()) > 80
    assert unread_private_definitions(sources) == []


def test_an_unread_private_definition_is_reported():
    first = ("class _Kept:\n"
             "    def __init__(self):\n        self._x = 1\n"
             "    def _used(self):\n        return self._x\n"
             "    def _stored(self):\n        return 0\n"
             "def _dead():\n    return _Kept()._used()\n"
             "async def _called():\n    pass\n")
    second = ("from first import _called\n"
              "def run(k):\n    k._stored = None\n    return _called()\n")
    assert unread_private_definitions({"first": first, "second": second}) == [
        "first:_stored (line 6)", "first:_dead (line 8)"]

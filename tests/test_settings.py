"""No library module reads the process environment: every setting comes
from an argument or an option, so the same call gives the same output
whatever the shell exports. An ast check, like tests/test_imports.py."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ncl"
MODULES = sorted(SRC.glob("*.py"))
AMBIENT = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """Each os.environ or os.getenv the module names, and each import of
    them from os, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in AMBIENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, node.col_offset, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, node.col_offset, alias.name)
                      for alias in node.names if alias.name in AMBIENT]
    return [f"os.{name} (line {line})" for line, _, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_an_environment_read_is_reported():
    source = ("import os\nfrom os import getenv\n"
              "def f():\n    return os.environ.get('X') or os.getenv('Y') or getenv('Z')\n")
    assert environment_reads(source) == ["os.getenv (line 2)", "os.environ (line 4)",
                                         "os.getenv (line 4)"]

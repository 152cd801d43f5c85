"""ncl.oracle checks the main path, so it must not run on it: it imports
nothing from ncl.fields and names none of the eliminations the main path
answers with. An ast check, like tests/test_trusted.py."""

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parents[1] / "src" / "ncl" / "oracle.py"
FORBIDDEN = {"rref", "rank", "kernel", "ranks", "_vanishing"}


def main_path_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import from the fields module and of each name,
    attribute or imported alias in FORBIDDEN, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "fields" or any(a.name == "fields" for a in node.names):
                found.append((node.lineno, f"from {'.' * node.level}{module} import"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[-1] == "fields"]
        if isinstance(node, ast.alias):
            found += [(node.lineno, n) for n in (node.name, node.asname) if n in FORBIDDEN]
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_oracle_stays_off_the_main_path():
    assert main_path_uses(ORACLE.read_text(encoding="utf-8")) == []


def test_a_use_of_the_main_path_is_reported():
    source = ("from .fields import PrimeField\nfrom . import fields\nimport ncl.fields\n"
              "from .realization import kernel as k\n"
              "def brute(r):\n    rank = fields.rank(r)\n    return _vanishing(r), ranks\n")
    assert main_path_uses(source) == [
        (1, "from .fields import"), (2, "from . import"), (3, "ncl.fields"), (4, "kernel"),
        (6, "rank"), (6, "rank"), (7, "_vanishing"), (7, "ranks")]

"""Only `fields` chooses between the bit-row engine (p <= 3) and the
numpy one (p >= 5): no other module of src/ncl compares a field order
with the literal 3. A field order is a name `p` or an attribute `.p`.
Other bounds stay legal, such as `_signed`'s p > 2 and the digit-string
cut p <= 10. An ast check, like tests/test_trusted.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncl"
MODULES = sorted(SRC.glob("*.py"))


def is_field_order(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "p")
            or (isinstance(node, ast.Attribute) and node.attr == "p"))


def is_three(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 3


def engine_choices(module: str, source: str) -> list[str]:
    """module:line of each comparison of a field order with 3, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_field_order, operands)) and any(map(is_three, operands)):
                found.append(node.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_only_fields_chooses_the_engine():
    choices = {path.stem: engine_choices(path.stem, path.read_text(encoding="utf-8"))
               for path in MODULES}
    assert choices["fields"]  # the check sees the choices that are there
    assert [c for stem, found in choices.items() if stem != "fields" for c in found] == []


def test_a_choice_elsewhere_is_reported():
    source = ("def projection_dim(self, spans):\n    if self.field.p <= 3:\n"
              "        return 1\n    return 3 < p\n"
              "def legal(field, p, spans):\n"
              "    return field.p > 2 or p <= 10 or p > 10 or len(spans) == 3\n")
    assert engine_choices("blockcode", source) == ["blockcode:2", "blockcode:4"]

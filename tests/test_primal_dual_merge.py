"""The dual merge reads the dual's unobservable behavior off the primal.

The dual realization's check rows span the primal's generator rows with
each state block negated at that state's negate_at end, so the dual's
unobservable behavior is the kernel of the state columns of those rows
(Realization._state_kernel): its dim is the primal's controllability
defect, since a realization is controllable iff its dual is observable
(Forney, "Codes on graphs: duality and MacWilliams identities"). Here
that is checked against the dual built by dualize, and an ast check,
like tests/test_oracle_independent.py, keeps dualize out of the
reduction module so that no move builds the dual again.
"""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from ncl import GF2, GF3, PrimeField, controllability_defect, dualize, unobservable_behavior
from fixtures import criterion12_witness, example2, example3_dual_product
from helpers import random_realization

REDUCTION = Path(__file__).resolve().parents[1] / "src" / "ncl" / "reduction.py"


def primal_state_kernel(r):
    """The state kernel of r's generator rows under the dual's sign rule."""
    return r._state_kernel(lambda c, space: r._signed(c, space.basis.array))


def cases():
    yield "example2", example2()
    yield "example3 dual product", example3_dual_product()
    yield "criterion 12", criterion12_witness()
    rng = random.Random(31)
    fields = [GF2, GF3, PrimeField(5)]
    for k in range(600):
        yield "random", random_realization(rng, fields[k % 3], extra_edges=2)


def test_the_primal_state_kernel_is_the_duals_unobservable_behavior():
    seen = Counter()
    for kind, r in cases():
        got = primal_state_kernel(r)
        assert got.space == unobservable_behavior(dualize(r)).space
        assert got.dim == controllability_defect(r)
        seen[kind, got.dim > 0] += 1
    # the fixtures are uncontrollable, and so are some random ones
    assert seen["example2", True] == seen["example3 dual product", True] == 1
    assert seen["criterion 12", True] == 1
    assert seen["random", True] >= 50 and seen["random", False] >= 50, seen


def dualize_uses(source: str) -> list[int]:
    """Lines of each name, attribute or imported alias called dualize."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found += [node.lineno for n in (node.name, node.asname) if n == "dualize"]
        elif isinstance(node, ast.Name) and node.id == "dualize":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "dualize":
            found.append(node.lineno)
    return sorted(found)


def test_the_reduction_module_never_names_dualize():
    assert dualize_uses(REDUCTION.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, lines", [
    ("from .realization import dualize\n", [1]),
    ("from .realization import dualize as d\n", [1]),
    ("from . import realization\n\n\ndef f(r):\n    return realization.dualize(r)\n", [5]),
    ("def f(r, dualize):\n    return dualize(r)\n", [2]),
])
def test_a_use_of_dualize_is_reported(source, lines):
    assert dualize_uses(source) == lines

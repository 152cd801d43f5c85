"""blockcode._trusted builds a frozen dataclass or a Realization with none
of its checks run, so only code that has checked the values itself, or
builds them from parts it has checked, may use it:
docio.parse_realization, which checks every field it reads; the
constructions' builders _bipartite and product_trellis, valid by
construction; realization.dualize, on a valid realization's topology and
blocks; Realization._with_state, which changes one state's dim of a
valid realization; and Topology._frame_columns, the behavior's frame of
the declared vars, read only after the realization is validated. An ast
check, like tests/test_settings.py."""

import ast
import random

import pytest

from ncl import (GF2, GF3, Realization, dualize, generator_realization, is_observable,
                 merge_state, parity_check_realization, parse_realization,
                 reduce_unobservable)
from fixtures import conventional_improper, example1, example1_document
from helpers import random_tail_biting_product, scoped_hits, scoped_hits_in_src

ALLOWED = {"docio.parse_realization", "constructions._bipartite",
           "constructions.product_trellis", "realization.dualize",
           "realization.Realization._with_state", "realization.Topology._frame_columns"}


def is_trusted_read(node: ast.AST) -> bool:
    """A read of the name _trusted, bare or as an attribute: calling it or
    handing it on both count."""
    return ((isinstance(node, ast.Name) and node.id == "_trusted"
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "_trusted"))


def test_only_the_checked_paths_use_trusted():
    uses = scoped_hits_in_src(is_trusted_read)
    assert set(uses) == ALLOWED  # each allowed path uses it, and no other does


def test_a_use_elsewhere_is_reported():
    source = ("from .blockcode import _trusted\nfrom . import blockcode\n"
              "def parse_realization(text):\n    return _trusted(C, id=text)\n"
              "class Topology:\n    def grow(self):\n        make = blockcode._trusted\n"
              "        return make(C)\n")
    assert scoped_hits("docio", source, is_trusted_read) == ["docio.parse_realization",
                                                             "docio.Topology.grow"]


def unobservability_child():
    """The child of an unobservability trim of a random GF(3) tail-biting
    product trellis, the first of the draw that is unobservable."""
    rng = random.Random(38)
    while is_observable(r := random_tail_biting_product(rng, GF3)):
        pass
    return reduce_unobservable(r)[0]


# one realization from each site that builds one through _trusted
TRUSTED_SITES = {
    "parse": lambda: parse_realization(example1_document()),
    "product_trellis": example1,
    "bipartite-generator": lambda: generator_realization(GF2, 3, [[1, 1, 0], [0, 1, 1]]),
    "bipartite-parity-check": lambda: parity_check_realization(GF3, 4, [[1, 2, 0, 1]]),
    "dualize": lambda: dualize(example1()),
    "merge-child": lambda: merge_state(conventional_improper(), "s2", "c2")[0],
    "unobservability-child": unobservability_child,
}


@pytest.mark.parametrize("site", TRUSTED_SITES)
def test_a_trusted_realization_has_the_constructors_layout(site):
    # a field that Realization.__init__ gains later cannot be missed here
    r = TRUSTED_SITES[site]()
    fresh = Realization(r.field, r.topology, r.codes)
    assert set(vars(r)) == set(vars(fresh)) | {"_issues"}

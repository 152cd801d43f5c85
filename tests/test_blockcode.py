"""Blocked codes: projection, cross-section, duality, enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    DimensionMismatchError,
    EnumerationLimitError,
    PrimeField,
    UnknownBlockError,
    format_word,
    parse_word,
)
from helpers import full_space, random_blocked_code, zero_space


class TestBlockStructure:
    def test_offsets_and_dims(self):
        s = BlockStructure((("a", 2), ("b", 0), ("c", 1)))
        assert s.total == 3
        assert s.ids() == ("a", "b", "c")
        assert s.offset("c") == 2 and s.dim("b") == 0
        assert list(s.positions(["c", "a"])) == [2, 0, 1]

    def test_restrict(self):
        s = BlockStructure((("a", 2), ("b", 1)))
        assert s.restrict(["b"]).blocks == (("b", 1),)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            BlockStructure((("a", 1), ("a", 2)))
        with pytest.raises(ValueError):
            BlockStructure((("a", -1),))
        with pytest.raises(UnknownBlockError):
            BlockStructure((("a", 1),)).offset("z")
        with pytest.raises(ValueError):
            BlockStructure((("a", 1), ("b", 1))).positions(["a", "a"])


def _code(field, blocks, rows):
    return BlockedCode.from_rows(field, BlockStructure(blocks), rows)


class TestBlockedCode:
    def test_structure_space_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            BlockedCode(BlockStructure((("a", 2),)), zero_space(GF2, 3))

    def test_project(self):
        c = _code(GF2, (("x", 2), ("y", 1)), [[1, 0, 1], [0, 1, 1]])
        assert c.project(["y"]).space == full_space(GF2, 1)
        assert c.project(["x"]).space == full_space(GF2, 2)
        # order of kept blocks is the order asked for
        assert c.project(["y", "x"]).structure.ids() == ("y", "x")

    def test_cross_section(self):
        c = _code(GF2, (("x", 2), ("y", 1)), [[1, 0, 1], [0, 1, 1]])
        # words with y = 0: only (1,1,0)
        cs = c.cross_section(["x"])
        assert cs.space.basis.tolist() == [[1, 1]]
        assert c.cross_section(["y"]).dim == 0

    def test_cross_section_inside_projection(self):
        rng = random.Random(7)
        for _ in range(30):
            field = rng.choice([GF2, GF3])
            c = random_blocked_code(rng, field, (("a", 2), ("b", 1), ("c", 2)))
            keep = rng.sample(["a", "b", "c"], rng.randint(1, 3))
            proj = c.project(keep)
            sect = c.cross_section(keep)
            assert sect.space.sum(proj.space) == proj.space

    def test_dual_dims(self):
        c = _code(GF3, (("a", 2), ("b", 2)), [[1, 0, 0, 2]])
        assert c.dual().dim == 3
        assert c.dual().dual() == c

    def test_dual_is_computed_once(self):
        c = _code(GF3, (("a", 2), ("b", 2)), [[1, 0, 0, 2]])
        assert c.dual().space is c.dual().space
        assert c.dual() == BlockedCode(c.structure, c.space.orthogonal())

    def test_equality_ignores_the_cached_dual(self):
        rows = [[1, 0, 0, 2], [0, 1, 1, 1]]
        fresh = _code(GF3, (("a", 2), ("b", 2)), rows)
        cached = _code(GF3, (("a", 2), ("b", 2)), rows)
        cached.dual()
        assert fresh == cached and cached == fresh
        assert cached != cached.dual()

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 10 ** 9))
    def test_projection_cross_section_duality(self, p, seed):
        # dual of a projection is the matching cross-section of the dual
        rng = random.Random(seed)
        field = PrimeField(p)
        blocks = tuple((f"b{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3)))
        c = random_blocked_code(rng, field, blocks)
        keep = [bid for bid, _ in blocks if rng.random() < 0.6] or [blocks[0][0]]
        assert c.project(keep).dual() == c.dual().cross_section(keep)
        assert c.cross_section(keep).dual() == c.dual().project(keep)

    def test_enumerate(self):
        c = _code(GF2, (("a", 3),), [[1, 1, 0], [0, 1, 1]])
        words = list(c.enumerate())
        assert len(words) == 4 == len(set(words))
        assert set(words) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
        assert all(c.space.contains(w) for w in words)

    def test_enumerate_cap(self):
        c = _code(GF2, (("a", 5),), [[1 if i == j else 0 for j in range(5)]
                                     for i in range(5)])
        with pytest.raises(EnumerationLimitError):
            list(c.enumerate(31))
        assert len(list(c.enumerate(32))) == 32

    def test_zero_width(self):
        c = _code(GF2, (("a", 0),), [])
        assert list(c.enumerate()) == [()]
        assert c.dual().dim == 0


class TestWordFormat:
    def test_small_field_digits(self):
        assert format_word(GF2, [1, 0, 1]) == "101"
        assert parse_word(GF2, "101") == (1, 0, 1)
        assert parse_word(GF3, " 012 ") == (0, 1, 2)

    def test_big_field_commas(self):
        f = PrimeField(11)
        assert format_word(f, [10, 0, 3]) == "10,0,3"
        assert parse_word(f, "10,0,3") == (10, 0, 3)

    def test_empty_word(self):
        assert format_word(GF2, []) == ""
        assert parse_word(GF2, "") == ()

    def test_commas_accepted_small_field(self):
        assert parse_word(GF2, "1,0,1") == (1, 0, 1)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_word(GF2, "10a")

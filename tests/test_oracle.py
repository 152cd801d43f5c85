"""The brute-force oracle itself."""

import pytest

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    BudgetExceededError,
    Constraint,
    DimensionMismatchError,
    EnumerationBudget,
    FieldMismatchError,
    InvalidRealizationError,
    Realization,
    SymbolVar,
    Topology,
    behavior,
    brute_behavior,
    brute_realized_words,
    check_realizes,
    dualize,
)
from fixtures import EX1_DUAL_WORDS, EX1_WORDS, example1


class TestBruteBehavior:
    def test_example1_word_count_and_order(self):
        words = brute_behavior(example1())
        assert len(words) == 8
        assert words == sorted(words)
        assert all(len(w) == 6 for w in words)

    def test_agrees_with_kernel_path(self):
        r = example1()
        assert set(brute_behavior(r)) == set(behavior(r).enumerate())

    def test_realized_words(self):
        assert brute_realized_words(example1()) == EX1_WORDS
        assert brute_realized_words(dualize(example1())) == EX1_DUAL_WORDS

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            brute_behavior(example1(), EnumerationBudget(63))
        assert len(brute_behavior(example1(), EnumerationBudget(64))) == 8

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EnumerationBudget(0)

    def test_requires_valid_realization(self):
        r = example1()
        codes = r.codes
        del codes["c0"]
        with pytest.raises(InvalidRealizationError):
            brute_behavior(Realization(GF2, r.topology, codes))

    def test_zero_code_constraint(self):
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        cons = (Constraint("c0", ("a0", "a1")),)
        codes = {"c0": BlockedCode.from_rows(
            GF2, BlockStructure((("a0", 1), ("a1", 1))), [])}
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        assert brute_behavior(r) == [(0, 0)]

    def test_gf3(self):
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        cons = (Constraint("c0", ("a0", "a1")),)
        codes = {"c0": BlockedCode.from_rows(
            GF3, BlockStructure((("a0", 1), ("a1", 1))), [[1, 2]])}
        r = Realization(GF3, Topology(symbols, (), cons), codes)
        assert set(brute_behavior(r)) == {(0, 0), (1, 2), (2, 1)}


class TestCheckRealizes:
    def test_accepts_the_true_code(self):
        expected = BlockedCode.from_rows(
            GF2, BlockStructure((("word", 3),)), [[1, 1, 0], [1, 0, 1]])
        verdict = check_realizes(example1(), expected)
        assert verdict.ok and verdict.counterexample is None
        assert bool(verdict)

    def test_rejects_with_minimal_counterexample(self):
        wrong = BlockedCode.from_rows(
            GF2, BlockStructure((("word", 3),)), [[1, 1, 1]])
        verdict = check_realizes(example1(), wrong)
        assert not verdict.ok
        assert verdict.counterexample == (0, 1, 1)

    def test_budget_passthrough(self):
        expected = BlockedCode.from_rows(
            GF2, BlockStructure((("word", 3),)), [[1, 1, 0], [1, 0, 1]])
        with pytest.raises(BudgetExceededError):
            check_realizes(example1(), expected, EnumerationBudget(8))

    # the reproducer of a foreign expected code: one GF(2) symbol, code <1>
    @pytest.mark.parametrize("field, rows, error", [
        (GF3, [[1]], FieldMismatchError),
        (GF2, [[1, 1]], DimensionMismatchError),
    ])
    def test_foreign_code_is_a_typed_error_before_enumerating(self, field, rows, error):
        symbols = (SymbolVar("a0", 1),)
        cons = (Constraint("c0", ("a0",)),)
        codes = {"c0": BlockedCode.from_rows(GF2, BlockStructure((("a0", 1),)), [[1]])}
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        expected = BlockedCode.from_rows(field, BlockStructure((("word", len(rows[0])),)), rows)
        # a budget of one point would stop any enumeration first
        with pytest.raises(error):
            check_realizes(r, expected, EnumerationBudget(1))

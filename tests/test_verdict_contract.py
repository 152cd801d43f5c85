"""The contract of analyze's verdict classes, TrimVerdict, ProperVerdict and
ConstraintReport: how they are built, compared, hashed, printed and read,
and that they cannot be changed after construction."""

import inspect

import pytest

from ncl import ConstraintReport, ProperVerdict, TrimVerdict

TRIM_OK = TrimVerdict(True, "c0", "s1")
TRIM_BAD = TrimVerdict(False, "c0", "s1", (0, 1))
PROPER_OK = ProperVerdict(True, "c0")
PROPER_BAD = ProperVerdict(False, "c0", "s1", (0, 1, 1))
REPORT = ConstraintReport("c0", 2, (TRIM_OK, TRIM_BAD), PROPER_BAD)


@pytest.mark.parametrize("cls, params", [
    (TrimVerdict, [("ok", inspect.Parameter.empty), ("constraint_id", inspect.Parameter.empty),
                   ("state_id", inspect.Parameter.empty), ("missing", None)]),
    (ProperVerdict, [("ok", inspect.Parameter.empty), ("constraint_id", inspect.Parameter.empty),
                     ("state_id", None), ("codeword", None)]),
    (ConstraintReport, [("id", inspect.Parameter.empty), ("dim", inspect.Parameter.empty),
                        ("trim", inspect.Parameter.empty), ("proper", inspect.Parameter.empty)]),
])
def test_attribute_names_and_defaults(cls, params):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params


def test_positional_and_keyword_construction_agree():
    assert TrimVerdict(ok=True, constraint_id="c0", state_id="s1") == TRIM_OK
    assert TrimVerdict(False, "c0", state_id="s1", missing=(0, 1)) == TRIM_BAD
    assert ProperVerdict(ok=True, constraint_id="c0") == PROPER_OK
    assert ProperVerdict(False, "c0", codeword=(0, 1, 1), state_id="s1") == PROPER_BAD
    assert ConstraintReport(proper=PROPER_BAD, trim=(TRIM_OK, TRIM_BAD), dim=2, id="c0") == REPORT
    assert (TRIM_OK.ok, TRIM_OK.constraint_id, TRIM_OK.state_id, TRIM_OK.missing) == (
        True, "c0", "s1", None)
    assert (PROPER_OK.state_id, PROPER_OK.codeword) == (None, None)
    assert (REPORT.id, REPORT.dim, REPORT.trim, REPORT.proper) == (
        "c0", 2, (TRIM_OK, TRIM_BAD), PROPER_BAD)


def test_equality_and_hash_within_a_type():
    for v in (TRIM_OK, TRIM_BAD, PROPER_OK, PROPER_BAD, REPORT):
        twin = type(v)(*[getattr(v, p) for p in inspect.signature(type(v)).parameters])
        assert twin == v and hash(twin) == hash(v) and not twin != v
    assert TRIM_OK != TrimVerdict(True, "c0", "s2")
    assert TRIM_OK != TrimVerdict(True, "c1", "s1")
    assert TRIM_BAD != TrimVerdict(False, "c0", "s1", (1, 0))
    assert PROPER_OK != ProperVerdict(False, "c0")
    assert REPORT != ConstraintReport("c0", 3, (TRIM_OK, TRIM_BAD), PROPER_BAD)
    assert len({TRIM_OK, TrimVerdict(True, "c0", "s1"), TRIM_BAD}) == 2


def test_repr_text():
    assert repr(TRIM_OK) == "TrimVerdict(ok=True, constraint_id='c0', state_id='s1', missing=None)"
    assert repr(TRIM_BAD) == ("TrimVerdict(ok=False, constraint_id='c0', state_id='s1', "
                              "missing=(0, 1))")
    assert repr(PROPER_OK) == ("ProperVerdict(ok=True, constraint_id='c0', state_id=None, "
                               "codeword=None)")
    assert repr(REPORT) == f"ConstraintReport(id='c0', dim=2, trim=({TRIM_OK!r}, {TRIM_BAD!r}), " \
                           f"proper={PROPER_BAD!r})"


def test_bool_is_the_verdict():
    assert TRIM_OK and PROPER_OK
    assert not TRIM_BAD and not PROPER_BAD
    assert bool(REPORT) is True
    assert REPORT.fully_trim is False
    assert ConstraintReport("c0", 2, (TRIM_OK,), PROPER_OK).fully_trim is True
    assert ConstraintReport("c0", 2, (), PROPER_OK).fully_trim is True


@pytest.mark.parametrize("v, name", [
    (TRIM_OK, "ok"), (TRIM_OK, "missing"), (PROPER_BAD, "codeword"), (REPORT, "dim"),
    (REPORT, "fully_trim"), (TRIM_OK, "extra"), (REPORT, "extra"),
])
def test_assignment_raises_attribute_error(v, name):
    with pytest.raises(AttributeError):
        setattr(v, name, 1)

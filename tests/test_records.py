"""The eight result records, pinned field by field.

Each record compares and hashes on its fields in order, leaving out the ones
in ``IGNORED``: a record of another type or a plain tuple is never equal to
it.  Fields cannot be assigned or deleted, copies and pickles keep every
field, and ``repr`` shows every field but the two a verdict carries for its
caller.
"""

import copy
import pickle

import pytest

from diffalg import (AffineAutomorphismFamily, Decomposition,
                     FamilyIdentification, Obstruction, PBWReport, Poly,
                     SmoothnessVerdict, TripleCheck, WitnessReport)
from diffalg.calculus import AutomorphismReport
from diffalg.scalars import rational

NU = AffineAutomorphismFamily(1, (((2, 1),),))
POLY = Poly(2, {(1, 0): rational(3, 2)})
DEC = Decomposition(5, (1, 3), (2, 4, 5), ((2,), (4,), (5,)), (), ((4,), (5,)), ((2,),))
FAM = FamilyIdentification("B", {"g": (1, 2), "L": (-3, 1)}, ("a violation",))

# (type, fields in constructor order, one instance's field values, its repr)
RECORDS = [
    (Decomposition, ("n", "I", "R", "R_components", "S", "T_circ", "T_bullet"),
     (5, (1, 3), (2, 4, 5), ((2,), (4,), (5,)), (), ((4,), (5,)), ((2,),)),
     "Decomposition(n=5, I=(1, 3), R=(2, 4, 5), R_components=((2,), (4,), (5,)), "
     "S=(), T_circ=((4,), (5,)), T_bullet=((2,),))"),
    (FamilyIdentification, ("family", "ratios", "violations"),
     ("B", {"g": (1, 2), "L": (-3, 1)}, ("a violation",)),
     "FamilyIdentification(family='B', ratios={'g': (1, 2), 'L': (-3, 1)}, "
     "violations=('a violation',))"),
    (TripleCheck, ("confluent", "nf_left", "nf_right"),
     (False, POLY, Poly.zero(2)),
     "TripleCheck(confluent=False, nf_left=Poly(3/2*(1, 0)), nf_right=Poly(0))"),
    (PBWReport, ("pbw", "first_failure"), (False, (1, 2, 3)),
     "PBWReport(pbw=False, first_failure=(1, 2, 3))"),
    (AutomorphismReport,
     ("relations_preserved", "pairwise_commute", "bijective", "failures"),
     (True, False, True, ("commute (1,2)",)),
     "AutomorphismReport(relations_preserved=True, pairwise_commute=False, "
     "bijective=True, failures=('commute (1,2)',))"),
    (Obstruction, ("i", "t", "residual", "family"), (1, 2, POLY, NU),
     "Obstruction(i=1, t=2, residual=Poly(3/2*(1, 0)), "
     "family=AffineAutomorphismFamily(n=1, table=(((Fraction(2, 1), "
     "Fraction(1, 1)),),)))"),
    (SmoothnessVerdict,
     ("verdict", "theorem_case", "witness", "obstruction", "notes",
      "decomposition", "identification"),
     ("Smooth", "iv", NU, None, ("a note",), DEC, FAM),
     "SmoothnessVerdict(verdict='Smooth', theorem_case='iv', "
     "witness=AffineAutomorphismFamily(n=1, table=(((Fraction(2, 1), "
     "Fraction(1, 1)),),)), obstruction=None, notes=('a note',))"),
    (WitnessReport, ("checks", "seconds", "methods"),
     ((("leibniz", True), ("connectedness", False)), (0.5, 0.25),
      ("closed-form", "sampled")),
     "WitnessReport(checks=(('leibniz', True), ('connectedness', False)), "
     "seconds=(0.5, 0.25), methods=('closed-form', 'sampled'))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# the fields that take no part in equality or hashing
IGNORED = {
    "FamilyIdentification": {"ratios"},
    "Obstruction": {"family"},
    "SmoothnessVerdict": {"decomposition", "identification"},
    "WitnessReport": {"seconds", "methods"},
}


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, text):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == record


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_equality_and_hashing_ignore_exactly_the_listed_fields(cls, fields, values, text):
    record = cls(*values)
    ignored = IGNORED.get(cls.__name__, set())
    compared = tuple(v for name, v in zip(fields, values) if name not in ignored)
    assert hash(record) == hash(compared)
    assert record == cls(*values) and not record != cls(*values)
    for k, name in enumerate(fields):
        changed = cls(*values[:k], ("changed", values[k]), *values[k + 1:])
        assert (changed == record) == (name in ignored), name
        assert (changed != record) == (name not in ignored), name
        if name in ignored:
            assert hash(changed) == hash(record), name


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_never_equal_to_a_tuple_or_another_record_type(cls, fields, values, text):
    record = cls(*values)
    assert record != values and values != record
    ignored = IGNORED.get(cls.__name__, set())
    assert record != tuple(v for name, v in zip(fields, values) if name not in ignored)
    for other_cls, _, other_values, _ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(*other_values)

    class Sub(cls):
        __slots__ = ()

    assert record != Sub(*values)


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_repr(cls, fields, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, text):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, name) for name in fields) == values


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_copies_keep_every_field(cls, fields, values, text):
    record = cls(*values)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
        assert repr(clone) == text
        assert tuple(getattr(clone, name) for name in fields) == values


def test_defaults():
    assert FamilyIdentification("D", {}).violations == ()
    verdict = SmoothnessVerdict("Undetermined")
    assert (verdict.theorem_case, verdict.witness, verdict.obstruction, verdict.notes,
            verdict.decomposition, verdict.identification) == (None, None, None, (), None, None)
    report = WitnessReport((("leibniz", True),))
    assert (report.seconds, report.methods) == ((), ())
    assert report == WitnessReport((("leibniz", True),), (1.0,), ("sampled",))


def test_properties():
    assert DEC.T == (2, 4, 5)
    assert Decomposition(3, (1, 2), (3,), ((3,),), (3,), (), ()).T == ()
    assert FAM.params == {"g": rational(1, 2), "L": rational(-3)}
    assert list(FAM.params) == ["g", "L"] and FAM.consistent
    assert not FamilyIdentification("Inconsistent", {}, ("x",)).consistent
    assert AutomorphismReport(True, True, True, ()).ok
    assert not any(AutomorphismReport(*flags, ()).ok
                   for flags in ((False, True, True), (True, False, True), (True, True, False)))
    assert WitnessReport((("a", True), ("b", True))).ok and WitnessReport(()).ok
    assert not WitnessReport((("a", True), ("b", False))).ok

"""The contract every immutable value class of the package keeps: equality and
hash by exact class and fields, no assignment, keyword construction, argument
errors, copies, pickles and a ``Name(field=value, ...)`` repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from opercalc import (
    BundleNumerics, CurveParams, ExpectedDimensions,
    FiltrationProfile, HNPolygon, MaxDegreeCertificate, MaximalityReport, OperShape,
    PosetDescription, QuotCertificate, QuotProblem, oper_polygon, pushforward_numerics,
)
from opercalc.filtrations import OperSlopeBound
from opercalc.laws import Law, LawResult, _oper_symmetric, _rank_genus

TRIVIAL = HNPolygon(((0, 0), (2, 0)))
CERTIFICATE = QuotCertificate(hypothesis_met=True, nonempty=True, case=1,
                              slope_lower_bound=Fraction(1, 3))

# One keyword construction per class, naming every field in order.
FIELDS = {
    CurveParams: dict(g=2, p=3),
    BundleNumerics: dict(rank=3, degree=1),
    HNPolygon: dict(breakpoints=((0, 0), (1, 1), (2, 0))),
    PosetDescription: dict(elements=(TRIVIAL,), covers=()),
    MaximalityReport: dict(r=2, g=2, count=1, oper_polygon_present=False,
                           counterexamples=(TRIVIAL,)),
    OperShape: dict(quotient=BundleNumerics(1, -1), length=2, curve=CurveParams(2)),
    QuotProblem: dict(Q=BundleNumerics(1, 0), r=2, curve=CurveParams(2, 3)),
    QuotCertificate: dict(hypothesis_met=True, nonempty=True, case=1,
                          slope_lower_bound=Fraction(1, 3)),
    ExpectedDimensions: dict(destabilized_locus_dim=2, quot_expected=0, oper_quot_degree=-1),
    MaxDegreeCertificate: dict(hypotheses_met=True, failed_hypotheses=(), max_degree=0,
                               slope_upper_bound=Fraction(1, 5), nonempty=CERTIFICATE),
    FiltrationProfile: dict(parts=(2, 1), cap=2),
    LawResult: dict(name="law", passed=False, detail="fails at (2, 2)"),
    Law: dict(name="oper-polygon-symmetry", cases=_rank_genus, holds=_oper_symmetric),
    OperSlopeBound: dict(bound=Fraction(7, 2), within_semistable_target=True),
}

# The records that check nothing, so their constructor only binds arguments to fields.
RECORDS = [PosetDescription, MaximalityReport, QuotCertificate, ExpectedDimensions,
           MaxDegreeCertificate, LawResult, Law, OperSlopeBound]

# The fields a constructor may omit, and the values it then takes.  A record
# that checks nothing has none: it takes every field.
DEFAULTS = [
    (CurveParams, dict(g=2), dict(p=0)),
]

classes = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def test_every_value_class_is_covered():
    assert len(FIELDS) == 14


@classes
def test_keyword_and_positional_construction_agree(cls):
    fields = FIELDS[cls]
    value = cls(**fields)
    assert value == cls(*fields.values())
    first, *rest = fields
    assert value == cls(fields[first], **{name: fields[name] for name in rest})
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("bind", [
    lambda cls, fields: cls(**dict(list(fields.items())[1:])),
    lambda cls, fields: cls(*fields.values(), None),
    lambda cls, fields: cls(**fields, no_such_field=None),
    lambda cls, fields: cls(next(iter(fields.values())), **fields),
], ids=["missing-field", "extra-positional", "unknown-keyword", "field-given-twice"])
def test_records_refuse_arguments_that_bind_to_no_field(cls, bind):
    with pytest.raises(TypeError):
        bind(cls, FIELDS[cls])


@pytest.mark.parametrize("cls, given, defaults", DEFAULTS,
                         ids=[cls.__name__ for cls, _, _ in DEFAULTS])
def test_omitted_fields_take_their_defaults(cls, given, defaults):
    value = cls(**given)
    assert {name: getattr(value, name) for name in defaults} == defaults


@classes
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = cls(**FIELDS[cls]), cls(**FIELDS[cls])
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@classes
def test_another_class_with_equal_fields_is_unequal(cls):
    twin = type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()})
    assert cls(**FIELDS[cls]) != twin(**FIELDS[cls])
    assert twin(**FIELDS[cls]) != cls(**FIELDS[cls])


def test_equal_fields_of_unrelated_classes_are_unequal():
    assert CurveParams(2, 3) != BundleNumerics(2, 3)


@classes
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    value = cls(**FIELDS[cls])
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == cls(**FIELDS[cls])


@classes
@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_duplicates_are_equal(cls, duplicate):
    value = cls(**FIELDS[cls])
    again = duplicate(value)
    assert type(again) is cls
    assert again == value


def test_an_unpickled_value_is_checked_again():
    pickled = pickle.dumps(CurveParams(2, 3))
    forged = pickled.replace(b"K\x03", b"K\x04")  # the characteristic 3 becomes 4
    assert forged != pickled
    with pytest.raises(ValueError, match="must be prime"):
        pickle.loads(forged)


@classes
def test_repr_names_every_field(cls):
    fields = FIELDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_repr_of_the_readme_example():
    assert repr(pushforward_numerics(BundleNumerics(1, -1), CurveParams(g=2, p=3))) == (
        "BundleNumerics(rank=3, degree=1)")
    assert repr(oper_polygon(2, 2)) == "HNPolygon(breakpoints=((0, 0), (1, 1), (2, 0)))"


def test_filtration_profiles_sort_by_parts_then_cap():
    profiles = [FiltrationProfile((2, 1), 3), FiltrationProfile((1, 1, 1), 1),
                FiltrationProfile((2, 1), 2), FiltrationProfile((2,), 2)]
    assert sorted(profiles) == [FiltrationProfile((1, 1, 1), 1), FiltrationProfile((2,), 2),
                                FiltrationProfile((2, 1), 2), FiltrationProfile((2, 1), 3)]
    assert FiltrationProfile((2,), 2) <= FiltrationProfile((2,), 2)
    assert FiltrationProfile((2, 1), 3) > FiltrationProfile((2, 1), 2)
    assert FiltrationProfile((2, 1), 3) >= FiltrationProfile((2, 1), 3)
    with pytest.raises(TypeError):
        FiltrationProfile((2,), 2) < (2,)

import hashlib
import random

import pytest

from opercalc import BundleNumerics
from opercalc.enumeration import _against_oper
from opercalc.laws import ALL_LAWS, Law, LawResult, _random_triples, random_polygon
from opercalc.opers import oper_quotient_degrees

# Every law's name, in report order, and the number of cases its grid yields;
# a grid that loses or gains a case fails here.
LAW_GRID_SIZES = [
    ("pushforward-slope-identity", 540),
    ("oper-polygon-constructions-coincide", 28),
    ("oper-polygon-symmetry", 28),
    ("oper-dimension-identities", 28),
    ("frobenius-oper-consistency", 468),
    ("quot-dimension-consistency", 44),
    ("hirschowitz-congruence", 1755),
    ("quot-nonempty-certificates", 1710),
    ("score-optimization", 55),
    ("slope-gap-minimum", 72),
    ("rearrangement-inequality", 300),
    ("key-inequality", 340),
    ("target-inequality-equivalence", 213),
    ("oper-maximality", 6),
    ("shatz-poset-laws", 200),
]


def law_named(name):
    (law,) = [law for law in ALL_LAWS if law.name == name]
    return law


class TestLawRunner:
    def test_empty_grid_fails(self):
        law = Law("vacuous", lambda: (), lambda: True)
        assert law() == LawResult("vacuous", False, "no cases checked")

    def test_fails_at_first_failing_case(self):
        seen = []

        def holds(a, b):
            seen.append((a, b))
            return (a, b) != (1, 7)

        law = Law("pairs", lambda: [(0, 5), (1, 7), (2, 9)], holds)
        assert law() == LawResult("pairs", False, "fails at (1, 7)")
        assert seen == [(0, 5), (1, 7)]

    def test_cases_are_restarted_on_each_run(self):
        law = Law("rerun", lambda: iter([(1,)]), lambda n: n == 1)
        assert law().passed and law().passed


class TestAllLaws:
    def test_names_in_order(self):
        assert [law.name for law in ALL_LAWS] == [n for n, _ in LAW_GRID_SIZES]

    @pytest.mark.parametrize("name, size", LAW_GRID_SIZES)
    def test_grid_size(self, name, size):
        assert sum(1 for _ in law_named(name).cases()) == size


def _top_raised(shape):
    *rest, top = oper_quotient_degrees(shape)
    return (*rest, BundleNumerics(top.rank, top.degree + 1))


def _ladder(shape, step, first):
    q = shape.quotient
    return tuple(BundleNumerics(q.rank, q.degree + i * q.rank * step)
                 for i in range(first, first + shape.length))


# Wrong quotient-degree ladders that stay strictly increasing, so that the
# polygon is still built, each with degrees that do not sum to 0.
WRONG_LADDERS = {
    "top-degree-plus-1": _top_raised,
    "step-2g-1": lambda shape: _ladder(shape, 2 * shape.curve.g - 1, 0),
    "index-from-1": lambda shape: _ladder(shape, 2 * shape.curve.g - 2, 1),
}


@pytest.mark.parametrize("ladder", WRONG_LADDERS.values(), ids=WRONG_LADDERS)
def test_the_constructions_row_checks_that_the_ladder_sums_to_zero(monkeypatch, ladder):
    monkeypatch.setattr("opercalc.laws.oper_quotient_degrees", ladder)
    assert law_named("oper-polygon-constructions-coincide")().passed is False


def forcing(flags):
    """``_against_oper`` with each polygon's (is_oper, under) replaced by ``flags`` of them."""
    def against_oper(polys, r, g):
        for poly, is_oper, under in _against_oper(polys, r, g):
            yield (poly, *flags(is_oper, under))
    return against_oper


# Wrong flags for the row to catch: a rule that answers "under" whatever the
# polygon, one that never does, and one that mistakes which polygon is the oper polygon.
FORCED_FLAGS = {
    "under-always-true": lambda is_oper, under: (is_oper, True),
    "under-always-false": lambda is_oper, under: (is_oper, False),
    "is-oper-flipped": lambda is_oper, under: (not is_oper, under),
}


class TestTargetInequalityRow:
    def test_the_grid_yields_both_values_of_each_flag(self):
        cases = list(law_named("target-inequality-equivalence").cases())
        assert {under for _, _, under, _ in cases} == {True, False}
        assert {is_oper for _, is_oper, _, _ in cases} == {True, False}

    @pytest.mark.parametrize("flags", FORCED_FLAGS.values(), ids=FORCED_FLAGS)
    def test_fails_when_a_flag_is_forced(self, monkeypatch, flags):
        monkeypatch.setattr("opercalc.laws._against_oper", forcing(flags))
        assert law_named("target-inequality-equivalence")().passed is False


def digest(polygons):
    return hashlib.sha256(repr([p.breakpoints for p in polygons]).encode()).hexdigest()


class TestRandomPolygons:
    def test_shatz_poset_grid_is_pinned(self):
        # the 200 rank-6 polygons _random_triples draws from, and its 200 triples
        rng = random.Random(20230818)
        assert digest(random_polygon(rng, 6) for _ in range(200)) == (
            "b32d21a0b554991f17fb2bbf175c24fa031a85981e0df65e1fd60b3d8faf53d5")
        triples = [p for triple in _random_triples() for p in triple]
        assert digest(triples) == (
            "1d5721728f9cf76f6e9b4afe5671b4f8d36289a057cbe8d7e6990769eb822832")

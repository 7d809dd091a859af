import hashlib
import inspect
import random

import pytest

from opercalc import BundleNumerics
from opercalc.enumeration import ABOVE, OPER, UNDER, _places
from opercalc.filtrations import key_inequality_check, rearrangement_check
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


def forcing(place):
    """``_places`` with each chain's place p replaced by ``place[p]``."""
    def places(r, g, ceiling):
        return map(place.__getitem__, _places(r, g, ceiling))
    return places


# Wrong places for the row to catch, read as flags: a rule that answers "under"
# whatever the polygon (above read as under), one that never does (every chain
# above), and one that mistakes which polygon is the oper polygon (oper and
# under swapped, so "under" is kept).
FORCED_PLACES = {
    "under-always-true": {UNDER: UNDER, OPER: OPER, ABOVE: UNDER},
    "under-always-false": {UNDER: ABOVE, OPER: ABOVE, ABOVE: ABOVE},
    "is-oper-flipped": {UNDER: OPER, OPER: UNDER, ABOVE: ABOVE},
}


class TestTargetInequalityRow:
    def test_the_grid_yields_both_values_of_each_flag(self):
        cases = list(law_named("target-inequality-equivalence").cases())
        assert {under for _, _, under, _ in cases} == {True, False}
        assert {is_oper for _, is_oper, _, _ in cases} == {True, False}

    @pytest.mark.parametrize("place", FORCED_PLACES.values(), ids=FORCED_PLACES)
    def test_fails_when_a_flag_is_forced(self, monkeypatch, place):
        monkeypatch.setattr("opercalc.laws._places", forcing(place))
        assert law_named("target-inequality-equivalence")().passed is False


def mutant(function, old, new):
    """``function`` with the one ``old`` in its source replaced by ``new``,
    compiled among its module's names."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


# Mutants of the two "always true" predicates that pass their inequality on
# the law's whole grid, each caught by the identity the predicate requires.
PREDICATE_MUTANTS = {
    "key-rhs-2l-2": ("key-inequality", key_inequality_check,
                     "(2 * l - 1) * sum", "(2 * l - 2) * sum"),
    "key-lhs-index-shifted": ("key-inequality", key_inequality_check,
                              "m_values[l - j - 1]", "m_values[l - j - 2]"),
    "rearrangement-short-sum": ("rearrangement-inequality", rearrangement_check,
                                "range(m // 2 + 1)", "range(m // 2)"),
}


@pytest.mark.parametrize("name, function, old, new", PREDICATE_MUTANTS.values(),
                         ids=PREDICATE_MUTANTS)
def test_a_predicate_mutant_fails_its_law(name, function, old, new):
    law = law_named(name)
    assert law.holds is function and law().passed
    assert Law(name, law.cases, mutant(function, old, new))().passed is False


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

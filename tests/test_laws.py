import pytest

from opercalc.laws import ALL_LAWS, Law, LawResult

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
    ("target-inequality-equivalence", 85),
    ("oper-maximality", 6),
    ("shatz-poset-laws", 200),
]


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
        (law,) = [law for law in ALL_LAWS if law.name == name]
        assert sum(1 for _ in law.cases()) == size

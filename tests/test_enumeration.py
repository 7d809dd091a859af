import itertools

import pytest

from opercalc import enumeration
from opercalc import (
    HNPolygon,
    enumerate_admissible,
    enumerate_admissible_slow,
    key_inequality_check,
    oper_polygon,
    shatz_leq,
    strata_poset,
    verify_oper_maximality,
    verify_target_inequalities,
)


class TestEnumerateAdmissible:
    def test_rank_two_genus_two(self):
        polys = enumerate_admissible(2, 2)
        assert set(polys) == {
            HNPolygon.trivial(2),
            HNPolygon(((0, 0), (1, 1), (2, 0))),
        }

    def test_rank_three_genus_two(self):
        polys = enumerate_admissible(3, 2)
        expected = {
            HNPolygon.trivial(3),
            HNPolygon(((0, 0), (1, 1), (3, 0))),
            HNPolygon(((0, 0), (2, 1), (3, 0))),
            HNPolygon(((0, 0), (1, 1), (2, 1), (3, 0))),
            HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0))),
        }
        assert set(polys) == expected

    def test_rank_two_genus_three(self):
        polys = enumerate_admissible(2, 3)
        assert set(polys) == {
            HNPolygon.trivial(2),
            HNPolygon(((0, 0), (1, 1), (2, 0))),
            HNPolygon(((0, 0), (1, 2), (2, 0))),
        }

    @pytest.mark.parametrize("r, g", [(4, 2), (6, 2), (5, 3), (7, 3)])
    def test_output_sorted_and_deduplicated(self, r, g):
        polys = enumerate_admissible(r, g)
        assert list(polys) == sorted(set(polys), key=lambda p: p.breakpoints)

    def test_limit_accepts_exactly_max_polygons(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 5)
        assert len(enumerate_admissible(3, 2)) == 5

    def test_limit_refuses_one_polygon_more(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 4)
        with pytest.raises(ValueError, match="rank 3 genus 2 .*MAX_POLYGONS = 4"):
            enumerate_admissible(3, 2)

    def test_counts_at_ranks_nine_and_ten(self):
        # both counts agree with enumerate_admissible_slow, which takes about
        # 3 s and 16 s at these ranks and so is not rerun here
        assert len(enumerate_admissible(9, 2)) == 4513
        report = verify_oper_maximality(10, 2)
        assert report.passed
        assert report.count == 15126

    @pytest.mark.parametrize("r", range(2, 11))
    def test_symmetric_unit_family_bounds_the_count(self, r):
        # unit segments, integer slopes s_i = -s_{r+1-i} falling by 1 or 2:
        # the family behind the refusal of large ranks before the search
        k, odd = divmod(r, 2)
        halves = [(1,), (2,)] if odd else [(1,)]  # s_k, above the middle
        for _ in range(k - 1):
            halves = [(h[0] + step,) + h for h in halves for step in (1, 2)]
        family = set()
        for half in halves:
            slopes = half + (0,) * odd + tuple(-s for s in reversed(half))
            ys = itertools.accumulate(slopes, initial=0)
            family.add(HNPolygon(tuple(enumerate(ys))))
        assert len(family) == 2 ** (k - 1 + odd)
        assert family <= set(enumerate_admissible(r, 2))

    def test_refuses_large_ranks_before_searching(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(enumeration, "_complete", no_search)
        for r in (38, 10**9):
            with pytest.raises(ValueError, match="MAX_POLYGONS = 250000"):
                enumerate_admissible(r, 2)

    def test_gap_constraints_hold(self):
        gap = 2 * 3 - 2
        for poly in enumerate_admissible(4, 3):
            slopes = poly.segment_slopes()
            for hi, lo in zip(slopes, slopes[1:]):
                assert hi - lo <= gap

    def test_slow_oracle_agrees(self):
        cases = [
            *itertools.product(range(2, 6), (2, 3)),
            (6, 2), (3, 4), (4, 4), (6, 3), (7, 2),
        ]
        for r, g in cases:
            assert enumerate_admissible(r, g) == enumerate_admissible_slow(r, g)

    def test_count_weakly_increasing_in_genus(self):
        for r in range(2, 6):
            counts = [len(enumerate_admissible(r, g)) for g in (2, 3, 4)]
            assert counts == sorted(counts)


class TestVerifyOperMaximality:
    def test_rank_two(self):
        report = verify_oper_maximality(2, 2)
        assert report.passed
        assert report.count == 2

    def test_rank_three(self):
        report = verify_oper_maximality(3, 2)
        assert report.passed
        assert report.count == 5

    def test_rank_four(self):
        report = verify_oper_maximality(4, 2)
        assert report.passed
        assert not report.counterexamples

    @pytest.mark.parametrize("r, g", [(3, 2), (5, 2), (4, 3)])
    def test_report_keeps_the_polygons_it_checked(self, r, g):
        report = verify_oper_maximality(r, g)
        assert report.polygons == enumerate_admissible(r, g)
        assert report.count == len(report.polygons)

    @pytest.mark.parametrize(
        "r, g", [(r, 2) for r in range(2, 6)] + [(r, 3) for r in range(2, 5)]
    )
    def test_hasse_diagram_has_oper_polygon_as_only_maximum(self, r, g):
        # unique_maximum is derived from dominance plus presence; this checks
        # uniqueness by the independent route of the poset's maximal elements.
        poset = strata_poset(enumerate_admissible(r, g))
        maxima = poset.maximal_indices()
        assert len(maxima) == 1
        assert poset.elements[maxima[0]] == oper_polygon(r, g)


class TestVerifyTargetInequalities:
    def test_oper_polygon_attains_equality(self):
        assert verify_target_inequalities(oper_polygon(3, 2), 2)

    def test_small_polygon(self):
        assert verify_target_inequalities(HNPolygon(((0, 0), (1, 1), (3, 0))), 2)

    def test_trivial_polygon(self):
        assert verify_target_inequalities(HNPolygon.trivial(4), 2)

    def test_rejects_nonzero_total_degree(self):
        with pytest.raises(ValueError):
            verify_target_inequalities(HNPolygon(((0, 0), (2, 1))), 2)

    def test_fails_above_oper_polygon(self):
        too_high = HNPolygon(((0, 0), (1, 2), (2, 0)))  # above (1,1) for g=2
        assert not verify_target_inequalities(too_high, 2)

    def test_equivalent_to_dominance(self):
        for r, g in itertools.product(range(2, 6), (2, 3)):
            top = oper_polygon(r, g)
            for poly in enumerate_admissible(r, g):
                assert verify_target_inequalities(poly, g) == shatz_leq(poly, top)


class TestKeyInequality:
    def test_all_zero(self):
        assert key_inequality_check(2, (0,))

    def test_example(self):
        assert key_inequality_check(3, (1, 1))

    def test_requires_matching_length(self):
        with pytest.raises(ValueError):
            key_inequality_check(4, (1, 2))

    def test_exhaustive_small_ranges(self):
        for l in range(2, 7):
            for m_values in itertools.product(range(5), repeat=l - 1):
                assert key_inequality_check(l, m_values)

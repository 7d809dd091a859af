import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opercalc import (
    BundleNumerics,
    CurveParams,
    HNPolygon,
    PosetDescription,
    enumerate_admissible,
    oper_polygon,
    polygon_from_quotient_data,
    shatz_leq,
    strata_poset,
)
from opercalc.core import _below


def reference_shatz_leq(a: HNPolygon, b: HNPolygon) -> bool:
    """Dominance by sampling both polygons' exact values at every integer."""
    return all(b.value_at(x) >= a.value_at(x) for x in range(a.total_rank + 1))


def reference_strata_poset(polygons) -> PosetDescription:
    """Covers by the cubic scan: i < j with no k strictly between them."""
    elements = tuple(sorted(set(polygons), key=lambda p: p.breakpoints))
    n = len(elements)
    leq = [[reference_shatz_leq(a, b) for b in elements] for a in elements]
    covers = [
        (i, j)
        for i, j in itertools.product(range(n), repeat=2)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    ]
    return PosetDescription(elements, tuple(covers))


def pair_matrix_strata_poset(polygons) -> PosetDescription:
    """Covers from the n(n-1) ordered ``_below`` pairs, reduced by bitsets.

    ``above[i]`` has bit j set iff elements[j] lies strictly above
    elements[i]; the order is transitive, so j covers i iff no k above i has
    j above it (Aho, Garey and Ullman, "The transitive reduction of a
    directed graph").
    """
    elements = tuple(sorted(set(polygons), key=lambda p: p.breakpoints))
    above = []
    for i, a in enumerate(elements):
        bits = 0
        for j, b in enumerate(elements):
            if j != i and _below(a, b):
                bits |= 1 << j
        above.append(bits)
    covers = []
    for i, bits in enumerate(above):
        reach = 0
        for k in _set_bits(bits):
            reach |= above[k]
        covers.extend((i, j) for j in _set_bits(bits & ~reach))
    return PosetDescription(elements, tuple(covers))


def _set_bits(mask: int):
    """Positions of the set bits of ``mask >= 0``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sheared(poly: HNPolygon, k: int) -> HNPolygon:
    """``poly`` mapped through ``y -> y + k*x``; it ends at ``(r, d + k*r)``."""
    return HNPolygon(tuple((x, y + k * x) for x, y in poly.breakpoints))


def concave_polygons(rank: int) -> st.SearchStrategy[HNPolygon]:
    """Degree-0 polygons of the given rank from random concave profiles."""

    def build(drops: list[int]) -> HNPolygon:
        drops = sorted(drops, reverse=True)
        mean, rem = divmod(sum(drops), rank)
        drops = [d - mean for d in drops]
        drops[-1] -= rem  # keep weak decrease: last entry only shrinks
        pts = [(0, 0)]
        y = 0
        for i, d in enumerate(drops, start=1):
            y += d
            pts.append((i, y))
        keep = [pts[0]]
        for j in range(1, rank):
            (x0, y0), (x1, y1), (x2, y2) = keep[-1], pts[j], pts[j + 1]
            if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
                keep.append(pts[j])
        keep.append(pts[rank])
        return HNPolygon(tuple(keep))

    return st.lists(
        st.integers(min_value=-6, max_value=6), min_size=rank, max_size=rank
    ).map(build)


class TestCurveParams:
    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            CurveParams(1, 2)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            CurveParams(2, 4)

    def test_characteristic_zero_allowed(self):
        assert CurveParams(3).p == 0


class TestBundleNumerics:
    def test_slope_is_exact(self):
        assert BundleNumerics(3, 1).slope == Fraction(1, 3)

    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            BundleNumerics(0, 1)


class TestHNPolygon:
    def test_trivial_polygon_allowed(self):
        poly = HNPolygon.trivial(4)
        assert poly.breakpoints == ((0, 0), (4, 0))
        assert poly.value_at(2) == 0

    def test_rejects_wrong_origin(self):
        with pytest.raises(ValueError):
            HNPolygon(((1, 0), (2, 0)))

    def test_rejects_collinear_interior_points(self):
        with pytest.raises(ValueError):
            HNPolygon(((0, 0), (1, 1), (2, 2)))

    def test_rejects_increasing_slopes(self):
        with pytest.raises(ValueError, match="strictly decrease"):
            HNPolygon(((0, 0), (1, 1), (3, 5)))

    def test_rejects_nondecreasing_ranks(self):
        with pytest.raises(ValueError):
            HNPolygon(((0, 0), (2, 1), (1, 2)))

    def test_rejects_fraction_breakpoint(self):
        with pytest.raises(ValueError, match="integer pairs"):
            HNPolygon(((0, 0), (Fraction(3, 2), 1), (3, 0)))

    def test_rejects_float_breakpoint(self):
        with pytest.raises(ValueError, match="integer pairs"):
            HNPolygon(((0, 0), (1, 1.0), (3, 0)))
        with pytest.raises(ValueError, match="integer pairs"):
            HNPolygon(((0, 0), (1.9, 1), (3, 0)))

    def test_value_at_interpolates_exactly(self):
        poly = HNPolygon(((0, 0), (1, 1), (3, 0)))
        assert poly.value_at(2) == Fraction(1, 2)

    def test_json_round_trip(self):
        poly = HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0)))
        assert HNPolygon.from_json(poly.to_json()) == poly

    @pytest.mark.parametrize("breakpoints", [
        [[0, 0], [1.9, 2], [3, 0]],
        [[0, 0], ["1", 2], [3, 0]],
    ])
    def test_from_json_rejects_non_integer_breakpoint(self, breakpoints):
        with pytest.raises(ValueError, match="breakpoints must be integer pairs"):
            HNPolygon.from_json({"breakpoints": breakpoints})

    def test_quotient_data_inverts_construction(self):
        ranks, degrees = (1, 2, 1), (-3, 0, 2)
        poly = polygon_from_quotient_data(ranks, degrees)
        assert poly.quotient_data() == ((1, -3), (2, 0), (1, 2))


class TestPolygonFromQuotientData:
    def test_rank_two_example(self):
        poly = polygon_from_quotient_data((1, 1), (-1, 1))
        assert poly.breakpoints == ((0, 0), (1, 1), (2, 0))

    def test_rank_three_example(self):
        poly = polygon_from_quotient_data((1, 1, 1), (-2, 0, 2))
        assert poly.breakpoints == ((0, 0), (1, 2), (2, 2), (3, 0))

    def test_rejects_decreasing_slopes(self):
        with pytest.raises(ValueError):
            polygon_from_quotient_data((1, 1), (1, -1))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            polygon_from_quotient_data((), ())

    def test_segment_slopes_read_back(self):
        ranks, degrees = (2, 1, 3), (-5, 0, 9)
        poly = polygon_from_quotient_data(ranks, degrees)
        expected = tuple(Fraction(d, n) for n, d in zip(ranks, degrees))
        assert tuple(reversed(poly.segment_slopes())) == expected


class TestShatzLeq:
    def test_trivial_below_everything(self):
        a = HNPolygon.trivial(2)
        b = HNPolygon(((0, 0), (1, 1), (2, 0)))
        assert shatz_leq(a, b)
        assert not shatz_leq(b, a)

    def test_derived_example(self):
        a = HNPolygon(((0, 0), (1, 1), (3, 0)))
        b = HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0)))
        assert shatz_leq(a, b)

    def test_reflexive_on_fixed_polygon(self):
        a = HNPolygon(((0, 0), (2, 3), (5, 0)))
        assert shatz_leq(a, a)

    def test_mismatched_endpoints_raise(self):
        with pytest.raises(ValueError):
            shatz_leq(HNPolygon.trivial(2), HNPolygon.trivial(3))

    @given(concave_polygons(6), concave_polygons(6), concave_polygons(6))
    def test_partial_order_laws(self, a, b, c):
        assert shatz_leq(a, a)
        if shatz_leq(a, b) and shatz_leq(b, a):
            assert a == b
        if shatz_leq(a, b) and shatz_leq(b, c):
            assert shatz_leq(a, c)

    @given(concave_polygons(6), concave_polygons(6))
    def test_matches_value_sampling_reference(self, a, b):
        assert shatz_leq(a, b) == reference_shatz_leq(a, b)
        assert shatz_leq(b, a) == reference_shatz_leq(b, a)

    @given(concave_polygons(7))
    def test_value_at_is_concave(self, poly):
        for x in range(1, poly.total_rank):
            mid = poly.value_at(x)
            assert 2 * mid >= poly.value_at(x - 1) + poly.value_at(x + 1)

    @given(concave_polygons(5))
    def test_values_always_reduced(self, poly):
        for x in range(poly.total_rank + 1):
            v = poly.value_at(x)
            from math import gcd

            assert gcd(v.numerator, v.denominator) == 1
            assert v.denominator > 0


class TestStrataPoset:
    def test_singleton(self):
        poset = strata_poset([HNPolygon.trivial(3)])
        assert len(poset.elements) == 1
        assert poset.covers == ()

    def test_antichain(self):
        a = HNPolygon(((0, 0), (1, 2), (4, 0)))
        b = HNPolygon(((0, 0), (3, 2), (4, 0)))
        assert not shatz_leq(a, b) and not shatz_leq(b, a)
        poset = strata_poset([a, b])
        assert poset.covers == ()
        assert len(poset.maximal_indices()) == 2

    def test_chain_with_unique_maximum(self):
        trivial = HNPolygon.trivial(3)
        mid = HNPolygon(((0, 0), (1, 1), (2, 1), (3, 0)))
        top = HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0)))
        poset = strata_poset([top, trivial, mid])
        (max_i,) = poset.maximal_indices()
        assert poset.elements[max_i] == top
        # trivial -> mid -> top is a chain, so trivial -> top is not a cover
        pairs = {(poset.elements[i], poset.elements[j]) for i, j in poset.covers}
        assert (trivial, top) not in pairs
        assert (trivial, mid) in pairs and (mid, top) in pairs

    def test_mismatched_endpoints_raise(self):
        with pytest.raises(ValueError):
            strata_poset([HNPolygon.trivial(2), HNPolygon.trivial(3)])

    @pytest.mark.parametrize(
        "r, g", [(r, 2) for r in range(2, 6)] + [(r, 3) for r in range(2, 5)]
    )
    def test_matches_cubic_reference(self, r, g):
        polys = enumerate_admissible(r, g)
        assert strata_poset(polys) == reference_strata_poset(polys)

    @pytest.mark.parametrize(
        "r, g",
        [(r, 2) for r in range(2, 7)] + [(r, 3) for r in range(2, 6)] + [(4, 4)],
    )
    def test_matches_pair_matrix_oracle(self, r, g):
        polys = enumerate_admissible(r, g)
        assert strata_poset(polys) == pair_matrix_strata_poset(polys)

    @given(
        st.lists(concave_polygons(5), min_size=1, max_size=16),
        st.integers(min_value=-2, max_value=2),
    )
    def test_shear_leaves_covers_unchanged(self, polys, k):
        poset = strata_poset(polys)
        moved = strata_poset(sheared(p, k) for p in polys)
        assert moved.elements == tuple(sheared(p, k) for p in poset.elements)
        assert moved.covers == poset.covers
        assert moved == pair_matrix_strata_poset(moved.elements)

    def test_refuses_past_the_element_limit_before_any_bitset(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("dominance vectors built before the size check")

        monkeypatch.setattr("opercalc.core.STRATA_MAX_ELEMENTS", 4)
        monkeypatch.setattr("opercalc.core._scaled_values", unreachable)
        polys = enumerate_admissible(3, 2)
        with pytest.raises(ValueError, match="5 polygons, above the limit of 4"):
            strata_poset(polys + polys)

    def test_duplicates_count_once_toward_the_limit(self, monkeypatch):
        polys = enumerate_admissible(3, 2)
        monkeypatch.setattr("opercalc.core.STRATA_MAX_ELEMENTS", len(polys))
        assert strata_poset(polys + polys) == strata_poset(polys)

    def test_rank_7_genus_3(self):
        poset = strata_poset(enumerate_admissible(7, 3))
        assert len(poset.elements) == 5767
        assert len(poset.covers) == 18623
        for i, j in poset.covers:
            lower, upper = poset.elements[i], poset.elements[j]
            assert lower != upper and shatz_leq(lower, upper)
        (top,) = poset.maximal_indices()
        assert poset.elements[top] == oper_polygon(7, 3)
        (bottom,) = poset.minimal_indices()
        assert poset.elements[bottom] == HNPolygon.trivial(7)

import itertools
import json
import operator
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from opercalc import (
    BundleNumerics,
    CurveParams,
    FiltrationProfile,
    HNPolygon,
    OperShape,
    PosetDescription,
    QuotProblem,
    enumerate_admissible,
    enumerate_admissible_slow,
    expected_dimensions,
    hirschowitz_bound,
    key_inequality_check,
    max_score_brute_force,
    max_score_closed_form,
    oper_polygon,
    oper_space_dimensions,
    oper_subbundle_slope_bound,
    polygon_from_quotient_data,
    pushforward_numerics,
    shatz_leq,
    strata_poset,
    threshold_C,
    verify_oper_maximality,
    verify_target_inequalities,
    worst_case_subbundle_slope_bound,
)
from opercalc import cli
from opercalc.core import _is_prime
from opercalc.enumeration import iter_admissible
from opercalc.filtrations import sun_gap_term
from opercalc.laws import random_polygon


def quotient_data(polygon):
    """Per-quotient (rank, degree) pairs of ``polygon`` read bottom-up, so that
    their slopes strictly increase: the inverse of ``polygon_from_quotient_data``."""
    pts = polygon.breakpoints
    return tuple((r1 - r0, d1 - d0) for (r0, d0), (r1, d1) in reversed(list(zip(pts, pts[1:]))))


def semistable(rank: int) -> HNPolygon:
    """The semistable degree-0 polygon: a single segment to (rank, 0)."""
    return HNPolygon(((0, 0), (rank, 0)))


def _below(a: HNPolygon, b: HNPolygon) -> bool:
    """True iff every breakpoint of ``a`` lies on or below ``b``.

    A breakpoint test independent of the scaled value vectors that
    :func:`shatz_leq` and :func:`strata_poset` compare.  ``a`` must not
    reach past ``b``'s last rank.  A point ``(x, y)`` on the segment
    ``(r0, d0)-(r1, d1)`` of ``b`` passes when
    ``y <= d0 + (d1 - d0)(x - r0)/(r1 - r0)``, tested with the width
    ``r1 - r0 > 0`` multiplied through.  On each segment of ``a`` the
    difference ``b - a`` is concave, so its minimum is at the segment's ends.
    """
    segments = zip(b.breakpoints, b.breakpoints[1:])
    (r0, d0), (r1, d1) = next(segments)
    for x, y in a.breakpoints:
        while x > r1:
            (r0, d0), (r1, d1) = next(segments)
        width = r1 - r0
        if y * width > d0 * width + (d1 - d0) * (x - r0):
            return False
    return True


def fraction_chain_value_at(poly: HNPolygon, x) -> Fraction:
    """d0 + ((d1 - d0)/(r1 - r0))(x - r0) on the segment that holds x, one
    Fraction operation at a time: an oracle for the integer form."""
    x = Fraction(x)
    for (r0, d0), (r1, d1) in zip(poly.breakpoints, poly.breakpoints[1:]):
        if x <= r1:
            return d0 + Fraction(d1 - d0, r1 - r0) * (x - r0)
    raise AssertionError("x beyond the last breakpoint")


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


@pytest.mark.parametrize("call", [
    lambda: CurveParams(2.0, 3),
    lambda: CurveParams(2, 3.0),
    lambda: BundleNumerics(1, 0.5),
    lambda: BundleNumerics(1.0, 0),
    lambda: pushforward_numerics(BundleNumerics(1, 0.5), CurveParams(2, 3)),
    lambda: oper_polygon(3, 2).value_at(0.1),
    lambda: oper_polygon(3, 2).value_at("1/2"),
    lambda: threshold_C(4, 2.5),
    lambda: threshold_C(4.0, 2),
    lambda: oper_space_dimensions(3, 2.5),
    lambda: OperShape(BundleNumerics(1, 0), 2.5, CurveParams(2, 0)),
    lambda: QuotProblem(BundleNumerics(1, 0), 1.5, CurveParams(2, 3)),
    lambda: hirschowitz_bound(2, 0.5, 1, 2),
    # integers, but genera below 2, which every other dimension formula refuses
    lambda: threshold_C(3, 1),
    lambda: threshold_C(3, -4),
    lambda: FiltrationProfile((1,), 2.5),
    lambda: expected_dimensions(2.5, 2),
    lambda: max_score_closed_form(2.5),
    lambda: oper_polygon(2.5, 2),
    lambda: enumerate_admissible(3.0, 2),
    lambda: enumerate_admissible_slow(3, 2.5),
    lambda: max_score_brute_force(3, 2.5),
    lambda: sun_gap_term((1,), 2.5, 5),
    lambda: sun_gap_term((1,), 2, 5.0),
    lambda: sun_gap_term((1.0,), 2, 5),
    # no parts: a weight of 0 would divide by zero
    lambda: sun_gap_term((), 2, 5),
    lambda: worst_case_subbundle_slope_bound(BundleNumerics(1, -1), 2.5, CurveParams(2, 5)),
    lambda: oper_subbundle_slope_bound(FiltrationProfile((1,), 1), BundleNumerics(1, 0), 2.5, 2),
    lambda: oper_subbundle_slope_bound(FiltrationProfile((1,), 1), BundleNumerics(1, 0), 2, 2.5),
    lambda: verify_target_inequalities(oper_polygon(3, 2), 2.5),
    lambda: key_inequality_check(3.0, [0, 1]),
    lambda: key_inequality_check(3, [0.5, 1]),
], ids=["curve-genus", "curve-char", "bundle-degree", "bundle-rank", "pushforward",
        "value-at-float", "value-at-str", "threshold-genus", "threshold-rank", "dimensions",
        "oper-shape-length", "quot-target-rank", "hirschowitz-degree", "threshold-genus-1",
        "threshold-genus-negative", "profile-cap", "expected-dimensions", "closed-form-weight",
        "oper-polygon-rank", "enumerate-rank", "slow-oracle-genus", "brute-force-cap",
        "sun-gap-genus", "sun-gap-char", "sun-gap-part", "sun-gap-no-parts",
        "worst-case-rank", "oper-bound-flag-length", "oper-bound-genus",
        "target-inequalities-genus", "key-inequality-length", "key-inequality-m"])
def test_rejects_a_non_integer_input(call):
    with pytest.raises(ValueError):
        call()


def raised_message(call) -> str:
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


@pytest.mark.parametrize("r, g, message", [
    (1, 2, "rank must be >= 2, got 1"),
    (2, 1, "genus must be >= 2, got 1"),
    (2.5, 2, "rank must be an integer, got 2.5"),
    (2, "3", "genus must be an integer, got '3'"),
    # a non-integer is named before a value below its minimum
    (1, 1.5, "genus must be an integer, got 1.5"),
])
@pytest.mark.parametrize("function", [
    oper_polygon, threshold_C, oper_space_dimensions,
    expected_dimensions, enumerate_admissible, enumerate_admissible_slow,
    verify_oper_maximality, iter_admissible,
], ids=lambda function: function.__name__)
def test_every_rank_genus_function_has_the_same_rule(function, r, g, message):
    assert raised_message(lambda: function(r, g)) == message


@pytest.mark.parametrize("call, message", [
    (lambda: CurveParams(1, 3), "genus must be >= 2, got 1"),
    (lambda: CurveParams(2, -7), "characteristic must be >= 0, got -7"),
    (lambda: BundleNumerics(0, 1), "rank must be >= 1, got 0"),
    (lambda: BundleNumerics(1, "0"), "degree must be an integer, got '0'"),
    (lambda: OperShape(BundleNumerics(1, 0), 0, CurveParams(2)), "length must be >= 1, got 0"),
    (lambda: OperShape.degree_zero_type_one(1, CurveParams(2)), "rank must be >= 2, got 1"),
    (lambda: OperShape.degree_zero_type_one(2.5, CurveParams(2)),
     "rank must be an integer, got 2.5"),
    (lambda: FiltrationProfile((1,), 0), "cap must be >= 1, got 0"),
    (lambda: max_score_closed_form(0), "weight must be >= 1, got 0"),
    (lambda: max_score_brute_force(0, 1), "weight must be >= 1, got 0"),
    (lambda: max_score_brute_force(1, 0), "cap must be >= 1, got 0"),
    (lambda: max_score_brute_force(0, 1.5), "cap must be an integer, got 1.5"),
    (lambda: worst_case_subbundle_slope_bound(BundleNumerics(1, -1), 0, CurveParams(2, 5)),
     "rank must be >= 1, got 0"),
    (lambda: oper_subbundle_slope_bound(FiltrationProfile((1,), 1), BundleNumerics(1, 0), 0, 2),
     "flag_length must be >= 1, got 0"),
    (lambda: hirschowitz_bound(3, 0, 1, 1), "genus must be >= 2, got 1"),
    (lambda: hirschowitz_bound(3, 0.5, 1, 1), "degree must be an integer, got 0.5"),
    (lambda: verify_target_inequalities(oper_polygon(3, 2), 0), "genus must be >= 2, got 0"),
    (lambda: key_inequality_check(1, []), "l must be >= 2, got 1"),
], ids=["curve-genus", "curve-char", "bundle-rank", "bundle-degree", "oper-shape-length",
        "type-one-rank", "type-one-rank-float", "profile-cap", "closed-form-weight",
        "brute-force-weight", "brute-force-cap", "brute-force-cap-float", "worst-case-rank",
        "oper-bound-flag-length", "hirschowitz-genus", "hirschowitz-degree", "target-inequalities-genus",
        "key-inequality-length"])
def test_names_the_value_below_its_minimum(call, message):
    assert raised_message(call) == message


@pytest.mark.parametrize("a, b", [
    (semistable(3), oper_polygon(3, 2)),
    (BundleNumerics(1, 0), BundleNumerics(2, 1)),
], ids=["polygon", "bundle"])
@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_no_order_but_the_shatz_order(a, b, compare):
    # a lexicographic order on fields would not be dominance; shatz_leq decides that
    with pytest.raises(TypeError):
        compare(a, b)


class TestCurveParams:
    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            CurveParams(1, 2)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            CurveParams(2, 4)

    def test_characteristic_zero_allowed(self):
        assert CurveParams(3).p == 0

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(30_000) if _is_prime(n)] == [
            n for n in range(30_000) if trial(n)
        ]

    @pytest.mark.parametrize(
        "n", [3_215_031_751, 2_152_302_898_747, 3_474_749_660_383, 341_550_071_728_321]
    )
    def test_rejects_strong_pseudoprimes(self, n):
        # the least strong pseudoprimes to the bases 2..7, 2..11, 2..13, 2..17
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="must be prime"):
            CurveParams(2, n)

    def test_accepts_a_large_prime(self):
        assert CurveParams(2, 2**61 - 1).p == 2**61 - 1

    def test_refuses_past_the_exact_range(self):
        # the least strong pseudoprime to every prime base up to 37
        with pytest.raises(ValueError, match="exact only below 318665857834031151167461"):
            CurveParams(2, 318_665_857_834_031_151_167_461)


class TestBundleNumerics:
    def test_slope_is_exact(self):
        assert BundleNumerics(3, 1).slope == Fraction(1, 3)

    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            BundleNumerics(0, 1)


class TestHNPolygon:
    def test_trivial_polygon_allowed(self):
        poly = HNPolygon(((0, 0), (4, 0)))
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

    @pytest.mark.parametrize("breakpoints, shown", [
        ((p for p in [(0, 0), (1, 0.5)]), "((0, 0), (1, 0.5))"),
        ([(0, 0, 0), (1, 0)], "((0, 0, 0), (1, 0))"),
        ([(0, 0), (1,)], "((0, 0), (1,))"),
    ])
    def test_names_bad_breakpoints_by_their_values(self, breakpoints, shown):
        with pytest.raises(ValueError) as info:
            HNPolygon(breakpoints)
        assert str(info.value) == f"breakpoints must be integer pairs, got {shown}"

    def test_rejects_a_single_breakpoint(self):
        with pytest.raises(ValueError, match="^polygon needs at least two breakpoints$"):
            HNPolygon(((0, 0),))

    def test_value_at_interpolates_exactly(self):
        poly = HNPolygon(((0, 0), (1, 1), (3, 0)))
        assert poly.value_at(2) == Fraction(1, 2)

    def test_value_at_equals_the_fraction_chain(self):
        rng = random.Random(20261018)
        for rank in range(1, 9):
            for _ in range(25):
                poly = random_polygon(rng, rank)
                halves = [Fraction(2 * k + 1, 2) for k in range(rank)]
                for x in [*range(rank + 1), *halves]:
                    value = poly.value_at(x)
                    assert type(value) is Fraction
                    assert value == fraction_chain_value_at(poly, x)

    @pytest.mark.parametrize("x, shown", [(-1, "-1"), (4, "4"), (Fraction(7, 2), "7/2"),
                                          (Fraction(-1, 3), "-1/3")])
    def test_value_at_refuses_an_abscissa_outside_the_polygon(self, x, shown):
        poly = HNPolygon(((0, 0), (1, 1), (3, 0)))
        with pytest.raises(ValueError, match=f"abscissa {shown} outside \\[0, 3\\]"):
            poly.value_at(x)

    def test_json_round_trip(self):
        poly = HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0)))
        written = json.dumps(poly, default=cli._json_default)
        assert HNPolygon(json.loads(written)["breakpoints"]) == poly

    @pytest.mark.parametrize("breakpoints", [
        [[0, 0], [1.9, 2], [3, 0]],
        [[0, 0], ["1", 2], [3, 0]],
    ])
    def test_from_json_rejects_non_integer_breakpoint(self, breakpoints):
        with pytest.raises(ValueError, match="breakpoints must be integer pairs"):
            HNPolygon(breakpoints)

    def test_quotient_data_inverts_construction(self):
        ranks, degrees = (1, 2, 1), (-3, 0, 2)
        poly = polygon_from_quotient_data(ranks, degrees)
        assert quotient_data(poly) == ((1, -3), (2, 0), (1, 2))


class TestPolygonFromQuotientData:
    def test_rank_two_example(self):
        poly = polygon_from_quotient_data((1, 1), (-1, 1))
        assert poly.breakpoints == ((0, 0), (1, 1), (2, 0))

    def test_rank_three_example(self):
        poly = polygon_from_quotient_data((1, 1, 1), (-2, 0, 2))
        assert poly.breakpoints == ((0, 0), (1, 2), (2, 2), (3, 0))

    @pytest.mark.parametrize("ranks, degrees", [
        pytest.param((1, 0, 2), (-1, 0, 1), id="zero-rank"),
        pytest.param((2, -1, 2), (-1, 0, 1), id="negative-rank"),
        pytest.param((1, 2), (1, 2), id="equal-slopes"),
        pytest.param((1, 1), (1, -1), id="decreasing-slopes"),
        pytest.param((1, 1), (-1, 0, 1), id="mismatched-lengths"),
        pytest.param((), (), id="empty"),
    ])
    def test_rejects_invalid_quotient_data(self, ranks, degrees):
        with pytest.raises(ValueError):
            polygon_from_quotient_data(ranks, degrees)

    @pytest.mark.parametrize("ranks, degrees, message", [
        pytest.param(("a", 1), (0, 0), "ranks must be integers, got ('a', 1)", id="str-rank"),
        pytest.param((1.5, 1), (0, 0), "ranks must be integers, got (1.5, 1)", id="float-rank"),
        pytest.param((1, 1), (0, Fraction(1, 2)),
                     "degrees must be integers, got (0, Fraction(1, 2))", id="fraction-degree"),
        pytest.param(iter([1, 1.0]), (0, 0), "ranks must be integers, got (1, 1.0)",
                     id="iterator"),
    ])
    def test_names_non_integer_quotient_data(self, ranks, degrees, message):
        with pytest.raises(ValueError) as info:
            polygon_from_quotient_data(ranks, degrees)
        assert str(info.value) == message

    def test_segment_slopes_read_back(self):
        ranks, degrees = (2, 1, 3), (-5, 0, 9)
        poly = polygon_from_quotient_data(ranks, degrees)
        expected = tuple(Fraction(d, n) for n, d in zip(ranks, degrees))
        segments = zip(poly.breakpoints, poly.breakpoints[1:])
        slopes = tuple(Fraction(d1 - d0, r1 - r0) for (r0, d0), (r1, d1) in segments)
        assert tuple(reversed(slopes)) == expected


class TestShatzLeq:
    def test_trivial_below_everything(self):
        a = semistable(2)
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
            shatz_leq(semistable(2), semistable(3))

    @given(concave_polygons(6), concave_polygons(6), concave_polygons(6))
    def test_partial_order_laws(self, a, b, c):
        assert shatz_leq(a, a)
        if shatz_leq(a, b) and shatz_leq(b, a):
            assert a == b
        if shatz_leq(a, b) and shatz_leq(b, c):
            assert shatz_leq(a, c)

    @given(concave_polygons(6), concave_polygons(6), st.integers(min_value=-3, max_value=3))
    def test_matches_value_sampling_reference(self, a, b, k):
        a, b = sheared(a, k), sheared(b, k)  # endpoint (6, 6k)
        for lo, hi in ((a, b), (b, a)):
            assert shatz_leq(lo, hi) == reference_shatz_leq(lo, hi) == _below(lo, hi)

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
    def test_empty(self):
        assert strata_poset(()) == PosetDescription((), ())

    def test_singleton(self):
        poset = strata_poset([semistable(3)])
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
        trivial = semistable(3)
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
            strata_poset([semistable(2), semistable(3)])

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
        assert poset.elements[bottom] == semistable(7)

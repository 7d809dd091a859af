"""Cross-formula identities, each checkable on a finite grid.

Every law is one :class:`Law` row ``(name, cases, holds)``: ``cases()``
yields the grid as argument tuples, and the law passes when
``holds(*case)`` is true for every case.  A law fails at its first failing
case, and a law whose grid yields no case fails too, so no law can pass by
checking nothing.  `opercalc check-laws` runs :data:`ALL_LAWS` and reports
one line per law.  The grids are sized to finish in seconds.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable

from .core import (
    BundleNumerics, CurveParams, HNPolygon, _Value, polygon_from_quotient_data, shatz_leq,
)
from .enumeration import _marks, iter_admissible, verify_oper_maximality
from .filtrations import (
    FiltrationProfile, _partitions, key_inequality_check, max_score_brute_force,
    max_score_closed_form, rearrangement_check, sun_gap_term,
)
from .frobenius import (
    QuotProblem, frobenius_oper_consistency, hirschowitz_bound, pushforward_numerics,
    quot_dim_lower_bound, quot_nonempty, worst_case_subbundle_slope_bound,
)
from .opers import OperShape, oper_polygon, oper_quotient_degrees, oper_space_dimensions


class LawResult(_Value):
    __slots__ = ("name", "passed", "detail")


class Law(_Value):
    """A named predicate over a finite grid of argument tuples."""

    __slots__ = ("name", "cases", "holds")

    def __call__(self) -> LawResult:
        checked = False
        for case in self.cases():
            if not self.holds(*case):
                return LawResult(self.name, False, f"fails at {case}")
            checked = True
        return LawResult(self.name, checked, "" if checked else "no cases checked")


def _rank_genus() -> Iterable[tuple[int, int]]:
    return itertools.product(range(2, 9), range(2, 6))


def _curve_grid(chars: Iterable[int], genera: Iterable[int], ranks: Iterable[int],
                degrees: Iterable[int]) -> Iterable[tuple[CurveParams, int, int]]:
    """``(curve, q, d)`` over the product of the four ranges, in that order,
    with one ``CurveParams(g, p)`` for each (p, g)."""
    for p, g in itertools.product(chars, genera):
        curve = CurveParams(g, p)
        for q, d in itertools.product(ranks, degrees):
            yield curve, q, d


def _pushforward_slope(curve: CurveParams, q: int, d: int) -> bool:
    p, g = curve.p, curve.g
    fq = pushforward_numerics(BundleNumerics(q, d), curve)
    # mu(Q)/p + (1 - 1/p)(g - 1)
    return fq.slope == Fraction(d, q * p) + Fraction((p - 1) * (g - 1), p)


def _oper_constructions_coincide(r: int, g: int) -> bool:
    # oper_polygon ends at (r, 0), so this also checks that the ladder's degrees sum to 0
    quots = oper_quotient_degrees(OperShape.degree_zero_type_one(r, CurveParams(g, 0)))
    built = polygon_from_quotient_data([b.rank for b in quots], [b.degree for b in quots])
    return built == oper_polygon(r, g)


def _oper_symmetric(r: int, g: int) -> bool:
    poly = oper_polygon(r, g)
    return all(poly.value_at(i) == poly.value_at(r - i) for i in range(r + 1))


def _oper_dimensions(r: int, g: int) -> bool:
    # The Hitchin base is the sum of H^0(K^i), i = 2..r, and Riemann-Roch gives
    # h^0(K^i) = (2i-1)(g-1) for i >= 2.
    dim = sum((2 * i - 1) * (g - 1) for i in range(2, r + 1))
    return oper_space_dimensions(r, g) == (dim, dim)


def _quot_dimension_cases() -> Iterable[tuple[QuotProblem, int]]:
    # the general lower-bound formula reproduces the rank-2 family value 2d
    for g, d in itertools.product(range(2, 6), range(0, 6)):
        yield QuotProblem(BundleNumerics(1, -(g - 1) + d), 2, CurveParams(g, 3)), 2 * d
    # the canonical problem has expected dimension exactly 0
    for r, g in itertools.product(range(2, 7), range(2, 6)):
        curve = CurveParams(g, 11)
        yield QuotProblem(OperShape.degree_zero_type_one(r, curve).quotient, r, curve), 0


def _hirschowitz_congruence(n: int, g: int, d: int, m: int) -> bool:
    eps, _ = hirschowitz_bound(n, d, m, g)
    return 0 <= eps <= n - 1 and (eps + m * (n - m) * (g - 1) - m * d) % n == 0


def _quot_nonempty_cases() -> Iterable[tuple[int, int, CurveParams, int]]:
    curves = {(p, g): CurveParams(g, p)
              for p, g in itertools.product((3, 5, 7, 11, 13), range(2, 5))}
    for q, ((p, g), curve) in itertools.product((1, 2, 3), curves.items()):
        for r in range(q + 1, min(3 * q, p * q - 1) + 1):
            lo = -(r - q) * (g - 1)
            for deg in range(lo, lo + 10):
                yield q, r, curve, deg


def _quot_certified(q: int, r: int, curve: CurveParams, deg: int) -> bool:
    cert = quot_nonempty(QuotProblem(BundleNumerics(q, deg), r, curve))
    return cert.hypothesis_met and cert.nonempty and cert.slope_lower_bound >= 0


def _score_optimal(w: int, q: int) -> bool:
    """The closed form is the maximum and the all-ones profile its only maximizer."""
    all_ones = FiltrationProfile((1,) * w, q)
    return max_score_brute_force(w, q) == (max_score_closed_form(w), (all_ones,))


def _slope_gap_minimum(q: int, w: int, p: int, g: int) -> bool:
    """Minimizing the gap term over all profiles of a given weight recovers
    the closed-form worst-case subbundle slope bound exactly."""
    curve = CurveParams(g, p)
    Q = BundleNumerics(q, -1)
    gap = min(sun_gap_term(parts, g, p) for parts in _partitions(w, q))
    bound = worst_case_subbundle_slope_bound(Q, w, curve)
    return pushforward_numerics(Q, curve).slope - gap == bound


def _random_profiles() -> Iterable[tuple[FiltrationProfile]]:
    rng = random.Random(20230817)
    for _ in range(300):
        q = rng.randint(1, 5)
        length = rng.randint(1, 6)
        parts = tuple(sorted((rng.randint(1, q) for _ in range(length)), reverse=True))
        yield (FiltrationProfile(parts, q),)


def _target_inequality_cases() -> Iterable[tuple[HNPolygon, bool, bool, HNPolygon]]:
    # the wider slope gap of genus g + 1 puts some polygons above the genus-g
    # oper polygon, so each flag read from _marks is tested at both values
    for r, g in itertools.product(range(2, 5), (2, 3)):
        top = oper_polygon(r, g)
        for poly, mark in zip(iter_admissible(r, g + 1), _marks(r, g + 1, g)):
            yield poly, mark == r + 1, mark <= r + 1, top


def _random_triples() -> Iterable[tuple[HNPolygon, HNPolygon, HNPolygon]]:
    rng = random.Random(20230818)
    polys = [random_polygon(rng, 6) for _ in range(200)]
    for _ in range(200):
        yield rng.choice(polys), rng.choice(polys), rng.choice(polys)


def _poset_laws(a: HNPolygon, b: HNPolygon, c: HNPolygon) -> bool:
    """Reflexivity, antisymmetry and transitivity of the Shatz order."""
    ab = shatz_leq(a, b)
    return (
        shatz_leq(a, a)
        and not (ab and shatz_leq(b, a) and a != b)
        and not (ab and shatz_leq(b, c) and not shatz_leq(a, c))
    )


def random_polygon(rng: random.Random, rank: int) -> HNPolygon:
    """Random degree-0 polygon of the given rank, built by canonicalizing a
    random concave integer profile, drops in -8..8 (collinear points merged)."""
    while True:
        # randrange(17) - 8 draws what randint(-8, 8) draws, from the same stream
        drops = [rng.randrange(17) - 8 for _ in range(rank)]
        shift = sum(drops)
        # force total degree 0 by re-centering, preserving weak decrease
        if shift % rank != 0:
            continue
        drops.sort(reverse=True)
        drops = [d - shift // rank for d in drops]
        # the drops weakly decrease, so interior point j is collinear with its
        # neighbours exactly when the drops on either side of it are equal
        pts = enumerate(itertools.accumulate(drops, initial=0))
        return HNPolygon([(j, y) for j, y in pts if j in (0, rank) or drops[j - 1] != drops[j]])


ALL_LAWS: tuple[Law, ...] = (
    Law(
        "pushforward-slope-identity",
        lambda: _curve_grid((2, 3, 5, 7, 11), range(2, 6), (1, 2, 3), range(-4, 5)),
        _pushforward_slope,
    ),
    Law("oper-polygon-constructions-coincide", _rank_genus, _oper_constructions_coincide),
    Law("oper-polygon-symmetry", _rank_genus, _oper_symmetric),
    Law("oper-dimension-identities", _rank_genus, _oper_dimensions),
    Law(
        "frobenius-oper-consistency",
        lambda: _curve_grid((2, 3, 5, 7), range(2, 5), (1, 2, 3), range(-6, 7)),
        lambda curve, q, d: frobenius_oper_consistency(BundleNumerics(q, d), curve),
    ),
    Law(
        "quot-dimension-consistency",
        _quot_dimension_cases,
        lambda problem, dim: quot_dim_lower_bound(problem) == dim,
    ),
    Law(
        "hirschowitz-congruence",
        lambda: (
            (n, g, d, m) for n, g in itertools.product(range(2, 11), range(2, 5))
            for d, m in itertools.product(range(-6, 7), range(1, n))
        ),
        _hirschowitz_congruence,
    ),
    Law("quot-nonempty-certificates", _quot_nonempty_cases, _quot_certified),
    Law(
        "score-optimization",
        lambda: ((w, q) for w in range(1, 11) for q in range(1, w + 1)),
        _score_optimal,
    ),
    Law(
        "slope-gap-minimum",
        lambda: itertools.product((1, 2, 3), range(1, 7), (5, 7), (2, 3)),
        _slope_gap_minimum,
    ),
    Law("rearrangement-inequality", _random_profiles, rearrangement_check),
    Law(
        "key-inequality",
        lambda: (
            (l, m) for l in range(2, 6) for m in itertools.product(range(4), repeat=l - 1)
        ),
        key_inequality_check,
    ),
    Law(
        "target-inequality-equivalence",
        _target_inequality_cases,
        lambda poly, is_oper, under, top: (is_oper, under) == (poly == top, shatz_leq(poly, top)),
    ),
    Law(
        "oper-maximality",
        lambda: itertools.product(range(2, 5), (2, 3)),
        lambda r, g: verify_oper_maximality(r, g).unique_maximum,
    ),
    Law("shatz-poset-laws", _random_triples, _poset_laws),
)


def run_all_laws() -> list[LawResult]:
    return [law() for law in ALL_LAWS]

"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every check is exact (integer or Fraction equality); there are no
tolerances anywhere in this module.
"""

import itertools
import json
import random
import sys
import time
from fractions import Fraction

from opercalc import (
    BundleNumerics,
    CurveParams,
    FiltrationProfile,
    HNPolygon,
    enumerate_admissible,
    enumerate_admissible_slow,
    expected_dimensions,
    key_inequality_check,
    max_score_brute_force,
    max_score_closed_form,
    oper_polygon,
    pushforward_numerics,
    rearrangement_check,
    shatz_leq,
    threshold_C,
    verify_oper_maximality,
    worst_case_subbundle_slope_bound,
)
from opercalc import cli
from opercalc.filtrations import _partitions, sun_gap_term
from opercalc.laws import ALL_LAWS, random_polygon


def _report(number: int, label: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{label}]: {status}", file=sys.stderr)
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_oper_polygon_vertices():
    start = time.monotonic()
    ok = all(
        oper_polygon(r, g).breakpoints
        == tuple((i, i * (r - i) * (g - 1)) for i in range(r + 1))
        for r, g in itertools.product(range(2, 9), range(2, 6))
    )
    ok = ok and time.monotonic() - start < 1.0
    _report(1, "oper polygon vertices", ok)


def test_criterion_2_optimization_lemma():
    start = time.monotonic()
    ok = True
    for w in range(1, 13):
        for q in range(1, w + 1):
            best, argmax = max_score_brute_force(w, q)
            ok = ok and best == max_score_closed_form(w) == w * (w - 1) // 2
            ok = ok and argmax == (FiltrationProfile((1,) * w, q),)
    ok = ok and time.monotonic() - start < 10.0
    _report(2, "score optimization lemma", ok)


def test_criterion_3_slope_bound_chain():
    ok = True
    for q, w, p, g in itertools.product(
        (1, 2, 3), range(1, 9), (5, 7, 11, 13), (2, 3, 4)
    ):
        curve = CurveParams(g, p)
        for deg in (-2, -1, 0, 1):
            Q = BundleNumerics(q, deg)
            min_gap = min(sun_gap_term(parts, g, p) for parts in _partitions(w, q))
            bound = pushforward_numerics(Q, curve).slope - min_gap
            expected = worst_case_subbundle_slope_bound(Q, w, curve)
            closed_form = Q.slope / p + Fraction((g - 1) * (w - 1), p)
            ok = ok and bound == expected == closed_form
    _report(3, "subbundle slope bound chain", ok)


def test_criterion_4_dominance_theorem():
    ok = True
    for r, g in itertools.product(range(2, 6), (2, 3)):
        report = verify_oper_maximality(r, g)
        ok = ok and report.unique_maximum
        ok = ok and enumerate_admissible(r, g) == enumerate_admissible_slow(r, g)
    # the slow oracle at these four is in test_slow_oracle_agrees
    for r, g in itertools.product((6, 7), (2, 3)):
        report = verify_oper_maximality(r, g)
        ok = ok and report.unique_maximum
    _report(4, "oper polygon dominance", ok)


def _law_passes(name: str, cases: int) -> bool:
    """Run the ``ALL_LAWS`` row ``name``, which must check exactly ``cases``
    cases, so the gate cannot shrink with the law's grid."""
    (law,) = (law for law in ALL_LAWS if law.name == name)
    return sum(1 for _ in law.cases()) == cases and law().passed


def test_criterion_5_dimension_identities():
    # oper space dimensions (g-1)(r^2-1) for r 2..8, g 2..5
    ok = _law_passes("oper-dimension-identities", 28)
    # Quot lower bound: 2d on the rank-2 family, 0 on the canonical problem
    ok = ok and _law_passes("quot-dimension-consistency", 44)
    ok = ok and all(threshold_C(2, g) == 0 for g in range(2, 9))
    ok = ok and all(
        expected_dimensions(2, g).destabilized_locus_dim == 3 * g - 4
        for g in range(2, 9)
    )
    ok = ok and all(
        expected_dimensions(r, g).quot_expected == 0
        for r, g in itertools.product(range(2, 7), range(2, 6))
    )
    _report(5, "dimension identities", ok)


def test_criterion_6_cross_formula_laws():
    ok = _law_passes("frobenius-oper-consistency", 468)
    # the quotient-degree ladder builds oper_polygon, which ends at (r, 0), for r 2..8, g 2..5
    ok = ok and _law_passes("oper-polygon-constructions-coincide", 28)
    _report(6, "pushforward/oper degree consistency", ok)


def test_criterion_7_nonemptiness_certificates():
    # hypothesis met, non-empty, slope bound >= 0 for q 1..3, p 3..13 prime, g 2..4
    ok = _law_passes("quot-nonempty-certificates", 1710)
    _report(7, "non-emptiness certificates", ok)


def test_criterion_8_property_suites():
    rng = random.Random(20260823)
    ok = True
    polygons = []
    for _ in range(1000):
        rank = rng.randint(2, 7)
        polygons.append((rank, random_polygon(rng, rank)))
    for rank, poly in polygons:
        ok = ok and shatz_leq(poly, poly)  # reflexive
    by_rank: dict[int, list[HNPolygon]] = {}
    for rank, poly in polygons:
        by_rank.setdefault(rank, []).append(poly)
    for group in by_rank.values():
        for a, b in zip(group, group[1:]):
            if shatz_leq(a, b) and shatz_leq(b, a):  # antisymmetric
                ok = ok and a == b
        for a, b, c in zip(group, group[1:], group[2:]):
            if shatz_leq(a, b) and shatz_leq(b, c):  # transitive
                ok = ok and shatz_leq(a, c)
    ok = ok and all(
        rearrangement_check(FiltrationProfile(parts, max(parts)))
        for w in range(1, 9)
        for parts in _partitions(w, w)
    )
    ok = ok and all(
        key_inequality_check(l, m_values)
        for l in range(2, 7)
        for m_values in itertools.product(range(5), repeat=l - 1)
    )
    for r, g in itertools.product(range(2, 6), (2, 3)):
        polys = enumerate_admissible(r, g)
        loaded = json.loads(json.dumps(polys, default=cli._json_default))
        round_tripped = tuple(HNPolygon(p["breakpoints"]) for p in loaded)
        ok = ok and round_tripped == polys
    _report(8, "property suites", ok)

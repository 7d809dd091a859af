"""Frobenius pushforward numerics and subbundle existence bounds.

Every predicate distinguishes "hypothesis not met" from "false": the
underlying statements are one-directional.
"""

from __future__ import annotations

from fractions import Fraction

from .core import BundleNumerics, CurveParams, _require_at_least, _require_integers, _Value
from .opers import OperShape


def pushforward_numerics(Q: BundleNumerics, curve: CurveParams) -> BundleNumerics:
    """Numerics of the Frobenius pushforward: rank pq, degree
    deg(Q) + q(p-1)(g-1).

    The resulting slope equals mu(Q)/p + (1 - 1/p)(g-1) exactly.
    """
    p, g = curve.require_positive_char(), curve.g
    q = Q.rank
    return BundleNumerics(p * q, Q.degree + q * (p - 1) * (g - 1))


def frobenius_oper_consistency(E: BundleNumerics, curve: CurveParams) -> bool:
    """Cross-formula law: the length-p shape on E has degree p * deg of the
    Frobenius pushforward of E. Holds for all inputs."""
    p = curve.require_positive_char()
    shape = OperShape(E, p, curve)
    return shape.degree == p * pushforward_numerics(E, curve).degree


def hirschowitz_bound(n: int, d: int, m: int, g: int) -> tuple[int, Fraction]:
    """Guaranteed slope of some rank-m subbundle of a rank-n degree-d bundle.

    Returns (epsilon, bound) where epsilon is the unique integer in
    [0, n-1] with epsilon + m(n-m)(g-1) = m d (mod n) and
    bound = d/n - ((n-m)/n)(g-1) - epsilon/(mn), which is
    floor((md - m(n-m)(g-1))/n)/m.
    """
    _require_integers(rank=n, degree=d, subbundle_rank=m)
    _require_at_least(2, genus=g)
    if not 1 <= m <= n - 1:
        raise ValueError(f"subbundle rank {m} out of range [1, {n - 1}]")
    k, eps = divmod(m * d - m * (n - m) * (g - 1), n)
    return eps, Fraction(k, m)


def worst_case_subbundle_slope_bound(
    Q: BundleNumerics, w: int, curve: CurveParams
) -> Fraction:
    """mu(Q)/p + (g-1)(w-1)/p: the slope bound for rank-w subbundles of the
    pushforward, obtained from the gap formula at the score maximum.  The law
    slope-gap-minimum recovers it by minimizing the gap over every profile."""
    p, g = curve.require_positive_char(), curve.g
    _require_at_least(1, rank=w)
    return Fraction(Q.degree + Q.rank * (g - 1) * (w - 1), Q.rank * p)


class QuotProblem(_Value):
    """Rank-r subsheaves of degree 0 inside the pushforward of Q.

    The standing range is q < r < pq with q = rk(Q).
    """

    __slots__ = ("Q", "r", "curve")

    def __init__(self, Q: BundleNumerics, r: int, curve: CurveParams) -> None:
        _require_integers(target_rank=r)
        p = curve.require_positive_char()
        q = Q.rank
        if not q < r < p * q:
            raise ValueError(
                f"target rank must satisfy q < r < pq: q={q}, r={r}, pq={p * q}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "curve", curve)


class QuotCertificate(_Value):
    """Outcome of the non-emptiness test.

    ``hypothesis_met`` is False when deg(Q) < -(r-q)(g-1); that is not a
    disproof.  When the hypothesis holds, ``case`` records which branch of
    the two-case analysis applies (1: the reduced residue
    r[deg(Q) + (r-q)(g-1)] already lies in [0, pq-1]; 2: it is >= pq) and
    ``slope_lower_bound`` is the certified lower bound (always >= 0) on the
    slope of some rank-r subbundle of the pushforward: exactly 0 in case 1.
    """

    __slots__ = ("hypothesis_met", "nonempty", "case", "slope_lower_bound")


def quot_nonempty(problem: QuotProblem) -> QuotCertificate:
    """Non-emptiness of the degree-0 subsheaf problem, with certificate."""
    # e = r[deg(Q) + (r-q)(g-1)] with r > 0, so the hypothesis
    # deg(Q) >= -(r-q)(g-1) is e >= 0.
    e = quot_dim_lower_bound(problem)
    if e < 0:
        return QuotCertificate(False, None, None, None)
    n = problem.curve.p * problem.Q.rank
    # the existence bound is mu(F_*Q) - ((n-r)/n)(g-1) - epsilon/(nr),
    # and mu(F_*Q) - ((n-r)/n)(g-1) = e/(nr)
    if e <= n - 1:
        # e is the canonical residue epsilon, so the bound is e/(nr) - e/(nr).
        bound, case = Fraction(0), 1
    else:
        # epsilon <= pq - 1 always, so -epsilon/(pqr) >= -1/r.
        bound, case = Fraction(e - n, n * problem.r), 2
    # by position: the keyword path builds a set on every call
    return QuotCertificate(True, True, case, bound)


def quot_dim_lower_bound(problem: QuotProblem) -> int:
    """Lower bound r[(r-q)(g-1) + deg(Q)] on the dimension of any component.

    May be negative; returned verbatim, interpretation left to the caller.
    """
    q, r, g = problem.Q.rank, problem.r, problem.curve.g
    return r * ((r - q) * (g - 1) + problem.Q.degree)


class ExpectedDimensions(_Value):
    """Expected-dimension record for the canonical rank-r problems.

    ``destabilized_locus_dim`` (3g-4) is reported only for rank 2;
    ``quot_expected`` is the expected dimension of the canonical subsheaf
    problem (always 0); ``oper_quot_degree`` is the degree of the first
    quotient of :meth:`OperShape.degree_zero_type_one`.
    """

    __slots__ = ("destabilized_locus_dim", "quot_expected", "oper_quot_degree")


def expected_dimensions(r: int, g: int) -> ExpectedDimensions:
    _require_at_least(2, rank=r, genus=g)
    shape = OperShape.degree_zero_type_one(r, CurveParams(g))
    return ExpectedDimensions(
        destabilized_locus_dim=3 * g - 4 if r == 2 else None,
        quot_expected=0,  # quot-dimension-consistency checks it by quot_dim_lower_bound
        oper_quot_degree=shape.quotient.degree,
    )


class MaxDegreeCertificate(_Value):
    """Certificate that the maximal degree of rank-r subbundles of the
    pushforward equals 0.

    When a hypothesis fails it is reported in ``failed_hypotheses``, not
    thrown.  When all hypotheses hold, ``max_degree`` is 0, witnessed from
    below by the non-emptiness certificate (some degree-0 subbundle exists)
    and from above by the strict slope bound ``slope_upper_bound`` < 1/r.
    """

    __slots__ = ("hypotheses_met", "failed_hypotheses", "max_degree", "slope_upper_bound",
                 "nonempty")


def maxdegree_certificate(
    Q: BundleNumerics, r: int, curve: CurveParams
) -> MaxDegreeCertificate:
    p, g = curve.require_positive_char(), curve.g
    q = Q.rank
    failed = []
    if not q < r < p * q:
        failed.append(f"rank range q < r < pq fails: q={q}, r={r}, pq={p * q}")
    # Stated here, not read as quot_dim_lower_bound >= 0: when the rank range
    # fails there is no QuotProblem to read it from, and every failure is reported.
    if not -(r - q) * (g - 1) <= Q.degree < 0:
        failed.append(
            f"degree range -(r-q)(g-1) <= deg(Q) < 0 fails: deg(Q)={Q.degree}"
        )
    if not p > r * (r - 1) * (g - 1):
        failed.append(f"p > r(r-1)(g-1) fails: p={p}, r(r-1)(g-1)={r*(r-1)*(g-1)}")
    if failed:
        return MaxDegreeCertificate(False, tuple(failed), None, None, None)
    cert = quot_nonempty(QuotProblem(Q, r, curve))
    # p > r(r-1)(g-1) makes the closed-form bound with w = r strictly
    # smaller than mu(Q)/p + 1/r < 1/r, hence every rank-r subbundle has
    # slope <= 0, while the certificate exhibits one of slope exactly 0.
    upper = worst_case_subbundle_slope_bound(Q, r, curve)
    return MaxDegreeCertificate(
        hypotheses_met=True,
        failed_hypotheses=(),
        max_degree=0,
        slope_upper_bound=upper,
        nonempty=cert,
    )

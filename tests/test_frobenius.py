import itertools
from fractions import Fraction

import pytest

from opercalc import (
    BundleNumerics,
    CurveParams,
    QuotProblem,
    expected_dimensions,
    hirschowitz_bound,
    maxdegree_certificate,
    pushforward_numerics,
    quot_dim_lower_bound,
    quot_nonempty,
)


def fraction_chain_hirschowitz_bound(n, d, m, g):
    """The bound as the paper writes it, d/n - ((n-m)/n)(g-1) - epsilon/(mn),
    one Fraction operation at a time: an oracle for the integer form."""
    eps = (m * d - m * (n - m) * (g - 1)) % n
    return eps, Fraction(d, n) - Fraction(n - m, n) * (g - 1) - Fraction(eps, m * n)


def fraction_chain_quot_bound(problem):
    """The certified slope as mu(F_*Q) - ((n-r)/n)(g-1) - epsilon/(nr),
    with epsilon = e in case 1 and bounded by n in case 2: an oracle for
    the closed forms 0 and (e-n)/(nr)."""
    g, q, r = problem.curve.g, problem.Q.rank, problem.r
    n = problem.curve.p * q
    e = r * (problem.Q.degree + (r - q) * (g - 1))
    base = pushforward_numerics(problem.Q, problem.curve).slope - Fraction(n - r, n) * (g - 1)
    return base - (Fraction(e, n * r) if e <= n - 1 else Fraction(1, r))


class TestPushforward:
    @pytest.mark.parametrize(
        "q,d,g,p,rank,deg",
        [(1, -1, 2, 3, 3, 1), (2, 1, 2, 3, 6, 5), (1, 0, 2, 2, 2, 1)],
    )
    def test_examples(self, q, d, g, p, rank, deg):
        fq = pushforward_numerics(BundleNumerics(q, d), CurveParams(g, p))
        assert (fq.rank, fq.degree) == (rank, deg)

    def test_slope_identity_exact(self):
        for p, g, q, d in itertools.product((2, 3, 5, 7, 11), range(2, 6), (1, 2), range(-3, 4)):
            Q = BundleNumerics(q, d)
            fq = pushforward_numerics(Q, CurveParams(g, p))
            assert fq.slope - Q.slope / p - (1 - Fraction(1, p)) * (g - 1) == 0

    def test_requires_positive_characteristic(self):
        with pytest.raises(ValueError):
            pushforward_numerics(BundleNumerics(1, 0), CurveParams(2, 0))


class TestHirschowitzBound:
    @pytest.mark.parametrize(
        "n,d,m,g,eps,bound",
        [
            (3, 1, 2, 2, 0, Fraction(0)),
            (2, 0, 1, 2, 1, Fraction(-1)),
            (4, 0, 2, 2, 0, Fraction(-1, 2)),
        ],
    )
    def test_examples(self, n, d, m, g, eps, bound):
        assert hirschowitz_bound(n, d, m, g) == (eps, bound)

    def test_rejects_out_of_range_subrank(self):
        with pytest.raises(ValueError):
            hirschowitz_bound(3, 0, 3, 2)
        with pytest.raises(ValueError):
            hirschowitz_bound(3, 0, 0, 2)

    def test_equals_the_fraction_chain(self):
        for n, d, g in itertools.product(range(2, 14), range(-20, 21), range(2, 6)):
            for m in range(1, n):
                eps, bound = hirschowitz_bound(n, d, m, g)
                assert type(bound) is Fraction
                assert (eps, bound) == fraction_chain_hirschowitz_bound(n, d, m, g)

    def test_congruence_holds_on_grid(self):
        for n, d, m, g in itertools.product(range(2, 9), range(-5, 6), range(1, 8), range(2, 5)):
            if m >= n:
                continue
            eps, _ = hirschowitz_bound(n, d, m, g)
            assert 0 <= eps <= n - 1
            assert (eps + m * (n - m) * (g - 1)) % n == (m * d) % n


class TestQuotProblem:
    def test_enforces_rank_range(self):
        with pytest.raises(ValueError):
            QuotProblem(BundleNumerics(2, 0), 2, CurveParams(2, 3))
        with pytest.raises(ValueError):
            QuotProblem(BundleNumerics(1, 0), 3, CurveParams(2, 3))


class TestQuotNonempty:
    def test_boundary_case_met(self):
        cert = quot_nonempty(QuotProblem(BundleNumerics(1, -1), 2, CurveParams(2, 3)))
        assert cert.hypothesis_met and cert.nonempty
        assert cert.slope_lower_bound >= 0

    def test_second_example(self):
        cert = quot_nonempty(QuotProblem(BundleNumerics(1, -2), 3, CurveParams(2, 5)))
        assert cert.hypothesis_met and cert.nonempty

    def test_hypothesis_not_met_is_not_a_disproof(self):
        cert = quot_nonempty(QuotProblem(BundleNumerics(1, -3), 2, CurveParams(2, 3)))
        assert not cert.hypothesis_met
        assert cert.nonempty is None

    def test_certificate_bound_nonnegative_on_grid(self):
        for q, p, g in itertools.product((1, 2, 3), (3, 5, 7), (2, 3, 4)):
            for r in range(q + 1, min(3 * q, p * q - 1) + 1):
                lo = -(r - q) * (g - 1)
                for deg in range(lo, lo + 8):
                    cert = quot_nonempty(
                        QuotProblem(BundleNumerics(q, deg), r, CurveParams(g, p))
                    )
                    assert cert.hypothesis_met
                    assert cert.slope_lower_bound >= 0
                    assert cert.case in (1, 2)

    def test_equals_the_fraction_chain(self):
        # Case 2 starts at deg = lo + ceil(pq/r) <= lo + p, as r > q, so a
        # window of p + 6 degrees from lo - 3 reaches both cases.
        checked = 0
        for q, p, g in itertools.product(range(1, 5), (2, 3, 5, 7, 11, 13), range(2, 6)):
            curve = CurveParams(g, p)
            for r in range(q + 1, p * q):
                lo = -(r - q) * (g - 1)
                cases = set()
                for deg in range(lo - 3, lo + p + 3):
                    checked += 1
                    problem = QuotProblem(BundleNumerics(q, deg), r, curve)
                    cert = quot_nonempty(problem)
                    if deg < lo:
                        assert not cert.hypothesis_met and cert.slope_lower_bound is None
                        continue
                    cases.add(cert.case)
                    assert type(cert.slope_lower_bound) is Fraction
                    assert cert.slope_lower_bound == fraction_chain_quot_bound(problem)
                    if cert.case == 1:
                        assert cert.slope_lower_bound == 0
                assert cases == {1, 2}, (q, p, g, r)
        assert checked == 20_608

    def test_case_split_matches_residue(self):
        # residue r[deg(Q)+(r-q)(g-1)] decides the branch
        p, g, q, r = 3, 2, 1, 2
        for deg in range(-1, 6):
            cert = quot_nonempty(QuotProblem(BundleNumerics(q, deg), r, CurveParams(g, p)))
            e = r * (deg + (r - q) * (g - 1))
            assert cert.case == (1 if e <= p * q - 1 else 2)


class TestQuotDimLowerBound:
    @pytest.mark.parametrize(
        "q,r,g,deg,expected",
        [(1, 3, 2, -2, 0), (1, 2, 2, -1, 0), (1, 2, 3, -1, 2)],
    )
    def test_examples(self, q, r, g, deg, expected):
        problem = QuotProblem(BundleNumerics(q, deg), r, CurveParams(g, 5))
        assert quot_dim_lower_bound(problem) == expected

    def test_rank_two_family_gives_twice_d(self):
        for g, d in itertools.product(range(2, 6), range(0, 6)):
            problem = QuotProblem(BundleNumerics(1, -(g - 1) + d), 2, CurveParams(g, 3))
            assert quot_dim_lower_bound(problem) == 2 * d

    def test_canonical_problem_is_zero(self):
        for r, g in itertools.product(range(2, 7), range(2, 6)):
            problem = QuotProblem(
                BundleNumerics(1, -(r - 1) * (g - 1)), r, CurveParams(g, 11)
            )
            assert quot_dim_lower_bound(problem) == 0

    def test_negative_bounds_returned_verbatim(self):
        problem = QuotProblem(BundleNumerics(1, -9), 2, CurveParams(2, 3))
        assert quot_dim_lower_bound(problem) == 2 * (1 - 9)


class TestExpectedDimensions:
    def test_rank_two(self):
        dims = expected_dimensions(2, 2)
        assert dims.destabilized_locus_dim == 2
        assert dims.quot_expected == 0
        assert dims.oper_quot_degree == -1

    def test_rank_two_genus_three(self):
        assert expected_dimensions(2, 3).destabilized_locus_dim == 5

    def test_higher_rank_has_no_rank_two_dimension(self):
        dims = expected_dimensions(3, 2)
        assert dims.destabilized_locus_dim is None
        assert dims.quot_expected == 0
        assert dims.oper_quot_degree == -2


class TestMaxDegreeCertificate:
    def test_positive_example(self):
        cert = maxdegree_certificate(BundleNumerics(1, -1), 2, CurveParams(2, 3))
        assert cert.hypotheses_met
        assert cert.max_degree == 0
        assert cert.nonempty.slope_lower_bound >= 0
        assert cert.slope_upper_bound < Fraction(1, 2)

    def test_characteristic_boundary_fails(self):
        cert = maxdegree_certificate(BundleNumerics(1, -1), 2, CurveParams(2, 2))
        assert not cert.hypotheses_met
        assert any("p > r(r-1)(g-1)" in msg for msg in cert.failed_hypotheses)
        assert cert.max_degree is None

    def test_second_positive_example(self):
        cert = maxdegree_certificate(BundleNumerics(1, -2), 3, CurveParams(2, 7))
        assert cert.hypotheses_met
        assert cert.slope_upper_bound < Fraction(1, 3)

    def test_degree_zero_fails_only_the_degree_range(self):
        cert = maxdegree_certificate(BundleNumerics(1, 0), 2, CurveParams(2, 3))
        assert cert.failed_hypotheses == (
            "degree range -(r-q)(g-1) <= deg(Q) < 0 fails: deg(Q)=0",)
        assert (cert.hypotheses_met, cert.max_degree) == (False, None)

    @pytest.mark.parametrize("q, d, r, p, failed", [
        # r = q: the rank range fails, and the degree range -(r-q)(g-1) = 0 is empty
        (1, -1, 1, 3, ("rank range q < r < pq fails: q=1, r=1, pq=3",
                       "degree range -(r-q)(g-1) <= deg(Q) < 0 fails: deg(Q)=-1")),
        (2, -1, 2, 5, ("rank range q < r < pq fails: q=2, r=2, pq=10",
                       "degree range -(r-q)(g-1) <= deg(Q) < 0 fails: deg(Q)=-1")),
        # r = pq: the rank range fails, and p > r(r-1)(g-1) cannot hold
        (1, -1, 3, 3, ("rank range q < r < pq fails: q=1, r=3, pq=3",
                       "p > r(r-1)(g-1) fails: p=3, r(r-1)(g-1)=6")),
        (2, -1, 4, 2, ("rank range q < r < pq fails: q=2, r=4, pq=4",
                       "p > r(r-1)(g-1) fails: p=2, r(r-1)(g-1)=12")),
    ], ids=["r=q", "r=q=2", "r=pq", "r=pq=4"])
    def test_rank_range_is_strict_at_both_ends(self, q, d, r, p, failed):
        cert = maxdegree_certificate(BundleNumerics(q, d), r, CurveParams(2, p))
        assert cert.failed_hypotheses == failed
        assert (cert.hypotheses_met, cert.max_degree) == (False, None)

    def test_certificates_hold_their_claim_on_a_grid(self):
        # The certificate returns max_degree 0 without computing it: check its
        # two witnesses wherever the hypotheses hold.  Primes up to 127, g 2..4,
        # q 1..3, q < r < min(pq, 8), degrees from 2 below -(r-q)(g-1) up to 1.
        primes = [p for p in range(2, 128) if all(p % k for k in range(2, p))]
        calls = met = 0
        for p, g, q in itertools.product(primes, range(2, 5), range(1, 4)):
            curve = CurveParams(g, p)
            for r in range(q + 1, min(p * q, 8)):
                for d in range(-(r - q) * (g - 1) - 2, 2):
                    cert = maxdegree_certificate(BundleNumerics(q, d), r, curve)
                    calls += 1
                    if cert.hypotheses_met:
                        met += 1
                        assert cert.max_degree == 0
                        assert cert.slope_upper_bound < Fraction(1, r)
                        assert cert.nonempty.slope_lower_bound >= 0
        assert (len(primes), calls, met) == (31, 13_308, 3730)

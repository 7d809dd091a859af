import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opercalc import (
    BundleNumerics,
    CurveParams,
    FiltrationProfile,
    max_score_brute_force,
    max_score_closed_form,
    oper_subbundle_slope_bound,
    profile_score,
    pushforward_numerics,
    rearrangement_check,
    sun_bound,
    worst_case_subbundle_slope_bound,
)
from opercalc.filtrations import MAX_PARTS, _partitions, _profile_count, sun_gap_term


def fraction_chain_sun_gap_term(parts, g, p):
    """(2(g-1)/(pw)) * sum(((p-1)/2 - i) r_i) with the half-integer (p-1)/2
    kept as a Fraction: an oracle for the integer form."""
    half = Fraction(p - 1, 2)
    total = sum((half - i) * r for i, r in enumerate(parts))
    return Fraction(2 * (g - 1), p * sum(parts)) * total


def fraction_chain_worst_case_bound(Q, w, curve):
    """mu(Q)/p + (g-1)(w-1)/p, one Fraction operation at a time."""
    return Q.slope / curve.p + Fraction((curve.g - 1) * (w - 1), curve.p)


def recursive_partitions(w, cap, prefix=()):
    """Depth-first reference walk: largest part first, one frame per part."""
    if w == 0:
        yield prefix
        return
    for part in range(min(cap, w), 0, -1):
        yield from recursive_partitions(w - part, part, prefix + (part,))


profiles = st.integers(1, 5).flatmap(
    lambda cap: st.lists(st.integers(1, cap), min_size=1, max_size=7).map(
        lambda parts: FiltrationProfile(tuple(sorted(parts, reverse=True)), cap)
    )
)


class TestFiltrationProfile:
    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            FiltrationProfile((1, 2), 3)

    def test_rejects_part_above_cap(self):
        with pytest.raises(ValueError):
            FiltrationProfile((3, 1), 2)

    def test_weight(self):
        assert FiltrationProfile((2, 2, 1), 2).weight == 5

    @pytest.mark.parametrize("parts", [(2.7, 1.2), (2, Fraction(1))])
    def test_rejects_non_integer_parts(self, parts):
        with pytest.raises(ValueError, match="parts must be integers"):
            FiltrationProfile(parts, 3)

    def test_names_a_generator_by_its_values(self):
        with pytest.raises(ValueError) as info:
            FiltrationProfile((x for x in [1.5]), 2)
        assert str(info.value) == "parts must be integers, got (1.5,)"

    @pytest.mark.parametrize("parts, message", [
        ((), "profile needs at least one part"),
        ((0,), "parts must be positive"),
    ])
    def test_rejects_empty_and_nonpositive_parts(self, parts, message):
        with pytest.raises(ValueError) as info:
            FiltrationProfile(parts, 1)
        assert str(info.value) == message


class TestProfileScore:
    def test_examples(self):
        assert profile_score(FiltrationProfile((1, 1, 1, 1), 1)) == 6
        assert profile_score(FiltrationProfile((2, 2), 2)) == 2
        assert profile_score(FiltrationProfile((7,), 7)) == 0


class TestMaxScore:
    def test_closed_form_values(self):
        assert max_score_closed_form(1) == 0
        assert max_score_closed_form(4) == 6
        assert max_score_closed_form(6) == 15

    def test_brute_force_small_cap(self):
        best, argmax = max_score_brute_force(4, 2)
        assert best == 6
        assert argmax == (FiltrationProfile((1, 1, 1, 1), 2),)

    def test_brute_force_trivial(self):
        assert max_score_brute_force(1, 1)[0] == 0

    def test_brute_force_unconstrained(self):
        best, argmax = max_score_brute_force(5, 5)
        assert best == 10
        assert argmax == (FiltrationProfile((1, 1, 1, 1, 1), 5),)

    def test_oracle_equals_closed_form_with_unique_all_ones_argmax(self):
        for w in range(1, 13):
            for q in range(1, w + 1):
                best, argmax = max_score_brute_force(w, q)
                assert best == max_score_closed_form(w)
                assert argmax == (FiltrationProfile((1,) * w, q),)

    def test_rejects_infeasible_cap(self):
        with pytest.raises(ValueError):
            max_score_brute_force(4, 0)

    def test_profile_count_is_exact_up_to_the_limit(self):
        for w in range(1, 16):
            for q in range(1, w + 2):
                assert _profile_count(w, q) == sum(1 for _ in _partitions(w, q))
        # p(51) = 239 943 <= MAX_PARTS // 51 = 245 098 < p(52) = 281 589
        assert _profile_count(50, 50) == 204_226
        assert _profile_count(51, 51) == 239_943
        for w, q in ((52, 52), (200, 200), (5000, 2), (10**9, 2)):
            assert _profile_count(w, q) == MAX_PARTS // w + 1
        assert _profile_count(10**9, 1) == 1

    def test_partitions_in_the_order_of_the_recursive_walk(self):
        for w in range(1, 16):
            for q in range(1, w + 2):
                assert list(_partitions(w, q)) == list(recursive_partitions(w, q))

    def test_refuses_past_the_parts_limit(self, monkeypatch):
        with pytest.raises(ValueError, match="more than MAX_PARTS = 12500000"):
            max_score_brute_force(10**9, 1)
        # weight 6 cap 3 has 7 profiles of up to 6 parts
        monkeypatch.setattr("opercalc.filtrations.MAX_PARTS", 42)
        assert max_score_brute_force(6, 3)[0] == 15
        with pytest.raises(ValueError, match="weight 7 cap 3: more than 6 profiles, .* = 42"):
            max_score_brute_force(7, 3)

    @pytest.mark.parametrize("w, q, profiles", [(4, 4, 5), (8, 2, 5)])
    def test_refusal_boundary(self, monkeypatch, w, q, profiles):
        # Profiles times weight at exactly MAX_PARTS is answered, one more is
        # refused.  Weight 8 cap 2 has w // 2 + 1 = 5 profiles, so at the lower
        # limit the count stops before it sums any.
        monkeypatch.setattr("opercalc.filtrations.MAX_PARTS", profiles * w)
        assert max_score_brute_force(w, q)[0] == max_score_closed_form(w)
        monkeypatch.setattr("opercalc.filtrations.MAX_PARTS", profiles * w - 1)
        with pytest.raises(ValueError, match=f"weight {w} cap {q}: more than {profiles - 1} "):
            max_score_brute_force(w, q)

    def test_refuses_past_the_profile_limit(self, monkeypatch):
        # MAX_PARTS // w profiles is the limit, and the count stops past it:
        # weight 52 has 281 589 profiles, more than 12 500 000 // 52 = 240 384
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr("opercalc.filtrations._partitions", no_walk)
        for w, q in ((52, 52), (200, 200), (10**9, 2)):
            with pytest.raises(ValueError, match=f"weight {w} cap {q}: .* MAX_PARTS = 12500000"):
                max_score_brute_force(w, q)


class TestSunBound:
    def test_two_part_example(self):
        profile = FiltrationProfile((1, 1), 1)
        assert sun_bound(profile, CurveParams(2, 5)) == Fraction(3, 5)

    def test_single_part_simplifies(self):
        for w, g, p in itertools.product((1, 2, 3, 5), (2, 3), (2, 3, 5)):
            profile = FiltrationProfile((w,), w)
            expected = Fraction((g - 1) * (p - 1), p)
            assert sun_bound(profile, CurveParams(g, p)) == expected

    def test_all_ones_example(self):
        profile = FiltrationProfile((1, 1, 1, 1), 1)
        assert sun_bound(profile, CurveParams(2, 5)) == Fraction(1, 5)

    def test_rejects_profile_longer_than_canonical_flag(self):
        profile = FiltrationProfile((1, 1, 1), 1)
        with pytest.raises(ValueError):
            sun_bound(profile, CurveParams(2, 2))
        # m = p - 1 is the longest admissible profile
        assert sun_bound(profile, CurveParams(2, 3)) == 0

    def test_gap_term_equals_the_fraction_chain(self):
        for w, g, p in itertools.product(range(1, 9), (2, 3, 4), (2, 3, 5, 7)):
            for parts in _partitions(w, w):
                gap = sun_gap_term(parts, g, p)
                assert type(gap) is Fraction
                assert gap == fraction_chain_sun_gap_term(parts, g, p)

    def test_characteristic_two_evaluated_exactly(self):
        profile = FiltrationProfile((2, 1), 2)
        # (2(g-1)/(pw)) ((1/2)*2 + (1/2-1)*1) = (2/6)(1/2) = 1/6
        assert sun_bound(profile, CurveParams(2, 2)) == Fraction(1, 6)


class TestWorstCaseBound:
    @pytest.mark.parametrize(
        "q,d,w,g,p,expected",
        [
            (1, -1, 2, 2, 5, Fraction(0)),
            (1, 0, 1, 2, 3, Fraction(0)),
            (2, 1, 3, 2, 7, Fraction(5, 14)),
        ],
    )
    def test_examples(self, q, d, w, g, p, expected):
        bound = worst_case_subbundle_slope_bound(
            BundleNumerics(q, d), w, CurveParams(g, p)
        )
        assert bound == expected

    def test_equals_the_fraction_chain(self):
        for q, d, w in itertools.product(range(1, 5), range(-10, 11), range(1, 9)):
            Q = BundleNumerics(q, d)
            for g, p in itertools.product((2, 3, 4), (2, 3, 5, 7)):
                curve = CurveParams(g, p)
                bound = worst_case_subbundle_slope_bound(Q, w, curve)
                assert type(bound) is Fraction
                assert bound == fraction_chain_worst_case_bound(Q, w, curve)

    def test_gap_minimum_recovers_closed_form(self):
        for q, w, p, g in itertools.product((1, 2, 3), range(1, 9), (5, 7, 11, 13), (2, 3, 4)):
            curve = CurveParams(g, p)
            Q = BundleNumerics(q, -1)
            min_gap = min(sun_gap_term(parts, g, p) for parts in _partitions(w, q))
            lhs = pushforward_numerics(Q, curve).slope - min_gap
            assert lhs == worst_case_subbundle_slope_bound(Q, w, curve)

    def test_threshold_law(self):
        # p > (w-1)(g-1)/delta forces the bound strictly below mu(Q)/p + delta
        for g, w, num, den in itertools.product((2, 3, 4), (2, 3, 5), (1, 2), (2, 3, 7)):
            delta = Fraction(num, den)
            for p in (5, 7, 11, 13, 17, 19, 23):
                if p <= (w - 1) * (g - 1) / delta:
                    continue
                Q = BundleNumerics(1, -1)
                bound = worst_case_subbundle_slope_bound(Q, w, CurveParams(g, p))
                assert bound < Q.slope / p + delta


class TestOperSubbundleSlopeBound:
    def test_equality_case(self):
        result = oper_subbundle_slope_bound(
            FiltrationProfile((1, 1), 1), BundleNumerics(1, -1), 2, 2
        )
        assert result.bound == 0
        assert result.within_semistable_target

    def test_single_block(self):
        result = oper_subbundle_slope_bound(
            FiltrationProfile((2,), 2), BundleNumerics(2, 0), 3, 2
        )
        assert result.bound == 0
        assert result.within_semistable_target

    def test_score_zero_gives_quotient_slope(self):
        result = oper_subbundle_slope_bound(
            FiltrationProfile((1,), 1), BundleNumerics(3, 2), 4, 3
        )
        assert result.bound == Fraction(2, 3)

    def test_rejects_profile_longer_than_flag(self):
        with pytest.raises(ValueError):
            oper_subbundle_slope_bound(
                FiltrationProfile((1, 1, 1), 1), BundleNumerics(1, 0), 2, 2
            )

    @pytest.mark.parametrize("g", [1, 0, -5])
    def test_rejects_genus_below_two(self, g):
        # below genus 2 the bound can exceed the target, which it never does on a curve
        with pytest.raises(ValueError, match=f"^genus must be >= 2, got {g}$"):
            oper_subbundle_slope_bound(FiltrationProfile((2, 1), 2), BundleNumerics(1, 0), 3, g)

    @given(profiles, st.integers(2, 4))
    def test_always_within_target_at_flag_length(self, profile, g):
        l = profile.m + 1
        result = oper_subbundle_slope_bound(profile, BundleNumerics(1, -1), l, g)
        assert result.within_semistable_target


class TestRearrangementCheck:
    def test_examples(self):
        assert rearrangement_check(FiltrationProfile((1, 1, 1), 1))
        assert rearrangement_check(FiltrationProfile((3, 2, 1), 3))
        assert rearrangement_check(FiltrationProfile((2, 1), 2))

    @given(profiles)
    def test_always_true_for_weakly_decreasing(self, profile):
        assert rearrangement_check(profile)

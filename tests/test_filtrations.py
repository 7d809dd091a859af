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
from opercalc.filtrations import MAX_PROFILES, _partitions, _profile_count, sun_gap_term

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
        assert _profile_count(50, 50) == 204_226
        assert _profile_count(200, 200) == _profile_count(10**9, 2) == MAX_PROFILES + 1
        assert _profile_count(10**9, 1) == 1

    def test_refuses_past_the_profile_limit(self, monkeypatch):
        # weight 6 has 11 profiles, 7 of them with parts <= 3
        monkeypatch.setattr("opercalc.filtrations.MAX_PROFILES", 7)
        assert max_score_brute_force(6, 3)[0] == 15
        with pytest.raises(ValueError, match="more than MAX_PROFILES = 7"):
            max_score_brute_force(6, 4)


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

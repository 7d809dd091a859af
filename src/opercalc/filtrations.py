"""Filtration profiles and the discrete slope optimization.

A profile is the sequence of ranks (r_0 >= ... >= r_m >= 1, r_0 <= cap)
induced on a subbundle by the canonical flag of a pushforward; the score
sum(i * r_i) controls how far the subbundle slope can rise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterator, NamedTuple

from .core import BundleNumerics, CurveParams

# The exhaustive score search walks every profile of the weight: 204 226 at
# w=50, about 2 s.  Every cap is admitted up to w=51 (239 943 profiles at
# full cap); w=52 has 281 589.
MAX_PROFILES = 250_000


@dataclass(frozen=True, order=True)
class FiltrationProfile:
    """Weakly decreasing positive integer parts capped by ``cap``."""

    parts: tuple[int, ...]
    cap: int

    def __post_init__(self) -> None:
        try:
            parts = tuple(index(x) for x in self.parts)
        except TypeError:
            raise ValueError(f"parts must be integers, got {self.parts}") from None
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("profile needs at least one part")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if parts[0] > self.cap:
            raise ValueError(f"leading part {parts[0]} exceeds cap {self.cap}")
        if parts[-1] < 1:
            raise ValueError("parts must be positive")
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise ValueError("parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        """Largest index: the profile has m + 1 parts."""
        return len(self.parts) - 1


def profile_score(profile: FiltrationProfile) -> int:
    """sum(i * r_i) over the parts."""
    return sum(i * r for i, r in enumerate(profile.parts))


def max_score_closed_form(w: int) -> int:
    """Closed-form maximum w(w-1)/2 of the score over weight-w profiles."""
    if w < 1:
        raise ValueError(f"weight must be >= 1, got {w}")
    return w * (w - 1) // 2


def _partitions(w: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive sequences with parts <= cap summing to w."""

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(w, cap, ())


def _profile_count(w: int, cap: int) -> int:
    """Number of weight-w profiles with parts <= cap, or ``MAX_PROFILES + 1``
    once it exceeds :data:`MAX_PROFILES`.  After part ``k``, ``ways[s]``
    counts the profiles of weight ``s`` with parts <= k."""
    cap = min(cap, w)
    if cap == 1:
        return 1
    if w // 2 + 1 > MAX_PROFILES:  # the profiles 2^j 1^(w-2j) alone
        return MAX_PROFILES + 1
    ways = [1] + [0] * w
    for part in range(1, cap + 1):
        for s in range(part, w + 1):
            ways[s] += ways[s - part]
        if ways[w] > MAX_PROFILES:
            return MAX_PROFILES + 1
    return ways[w]


def max_score_brute_force(
    w: int, q: int
) -> tuple[int, tuple[FiltrationProfile, ...]]:
    """Exhaustive maximum of the score over all profiles of weight w, cap q.

    Iterates over all lengths 1..w.  Returns the maximum and every
    maximizer, sorted.  Independent oracle for the closed form.  Refuses,
    before walking any, more than :data:`MAX_PROFILES` profiles.
    """
    if w < 1:
        raise ValueError(f"weight must be >= 1, got {w}")
    if q < 1:
        raise ValueError(f"cap must be >= 1, got {q}")
    if _profile_count(w, q) > MAX_PROFILES:
        raise ValueError(f"weight {w} cap {q} has more than MAX_PROFILES = {MAX_PROFILES} "
                         "profiles; refusing the exhaustive search")
    best = -1
    argmax: list[FiltrationProfile] = []
    for parts in _partitions(w, q):
        score = sum(i * r for i, r in enumerate(parts))
        if score > best:
            best = score
            argmax = [FiltrationProfile(parts, q)]
        elif score == best:
            argmax.append(FiltrationProfile(parts, q))
    return best, tuple(sorted(argmax))


def sun_gap_term(parts: tuple[int, ...], g: int, p: int) -> Fraction:
    """(2(g-1)/(pw)) * sum(((p-1)/2 - i) r_i), evaluated exactly.

    Algebraic in p: for p = 2 the half-integer (p-1)/2 is kept as the
    exact rational 1/2.
    """
    w = sum(parts)
    half = Fraction(p - 1, 2)
    total = sum((half - i) * r for i, r in enumerate(parts))
    return Fraction(2 * (g - 1), p * w) * total


def sun_bound(profile: FiltrationProfile, curve: CurveParams) -> Fraction:
    """Guaranteed gap between the pushforward slope and the slope of a
    subbundle inducing this profile.

    The profile may not be longer than the canonical flag, i.e. m <= p - 1.
    """
    p = curve.require_positive_char()
    if profile.m >= p:
        raise ValueError(
            f"profile has {profile.m + 1} parts, longer than the canonical flag ({p})"
        )
    return sun_gap_term(profile.parts, curve.g, p)


def worst_case_subbundle_slope_bound(
    Q: BundleNumerics, w: int, curve: CurveParams
) -> Fraction:
    """mu(Q)/p + (g-1)(w-1)/p: the slope bound for rank-w subbundles of the
    pushforward, obtained from the gap formula at the score maximum."""
    p, g = curve.require_positive_char(), curve.g
    if w < 1:
        raise ValueError(f"rank must be >= 1, got {w}")
    return Q.slope / p + Fraction((g - 1) * (w - 1), p)


class OperSlopeBound(NamedTuple):
    bound: Fraction
    within_semistable_target: bool


def oper_subbundle_slope_bound(
    profile: FiltrationProfile, Q: BundleNumerics, l: int, g: int
) -> OperSlopeBound:
    """mu(Q) + (2g-2)/w * score: slope bound for a subbundle of a length-l
    flagged bundle inducing this profile, and whether it stays within the
    semistability target mu(Q) + (l-1)(g-1).  It always does."""
    if profile.m > l - 1:
        raise ValueError(
            f"profile has {profile.m + 1} parts, flag has length {l}"
        )
    bound = Q.slope + Fraction(2 * g - 2, profile.weight) * profile_score(profile)
    target = Q.slope + (l - 1) * (g - 1)
    return OperSlopeBound(bound, bound <= target)


def rearrangement_check(profile: FiltrationProfile) -> bool:
    """sum over i <= m/2 of (m - 2i)(r_i - r_{m-i}) is >= 0.

    Always true for weakly decreasing profiles; exposed as a law.
    """
    m, r = profile.m, profile.parts
    total = sum((m - 2 * i) * (r[i] - r[m - i]) for i in range(m // 2 + 1))
    return total >= 0

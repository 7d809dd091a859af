"""Filtration profiles and the discrete slope optimization.

A profile is the sequence of ranks (r_0 >= ... >= r_m >= 1, r_0 <= cap)
induced on a subbundle by the canonical flag of a pushforward; the score
sum(i * r_i) controls how far the subbundle slope can rise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Iterator, Sequence

from .bundles import BundleNumerics, CurveParams
from .core import _integer_tuple, _require_at_least, _require_integers, _Value

# The exhaustive score search walks every profile of the weight, each of up
# to w parts, so profiles times w is bounded: MAX_PARTS // w is the most
# profiles admitted.  This admits every cap up to w=51 (239 943 profiles at
# full cap, about 1 s) and refuses w=52 at full cap (281 589); it admits
# w=4999 at cap 2 (about 2 s) and w=12 500 000 at cap 1 (about 5 s and 400 MB).
MAX_PARTS = 12_500_000


@total_ordering
class FiltrationProfile(_Value):
    """Weakly decreasing positive integer parts capped by ``cap``, ordered
    by ``(parts, cap)``."""

    __slots__ = ("parts", "cap")

    def __init__(self, parts: tuple[int, ...], cap: int) -> None:
        _require_at_least(1, cap=cap)
        parts = _integer_tuple("parts", parts)
        if not parts:
            raise ValueError("profile needs at least one part")
        if parts[0] > cap:
            raise ValueError(f"leading part {parts[0]} exceeds cap {cap}")
        if parts[-1] < 1:
            raise ValueError("parts must be positive")
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "cap", cap)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parts, self.cap) < (other.parts, other.cap)

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
    _require_at_least(1, weight=w)
    return w * (w - 1) // 2


def _partitions(w: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive sequences with parts <= cap summing to w,
    in decreasing lexicographic order.  Its callers have checked that w and
    cap are positive.

    Each step lowers the last part above 1 and refills the rest greedily
    (Knuth, TAOCP 7.2.1.4), without recursion: a profile may have w parts.
    """
    parts: list[int] = []
    while True:
        q, rem = divmod(w, cap)  # refill w with parts <= cap
        parts += [cap] * q + ([rem] if rem else [])
        yield tuple(parts)
        ones = parts.count(1)
        del parts[len(parts) - ones:]
        if not parts:
            return
        cap = parts.pop() - 1
        w = ones + 1 + cap


def _profile_count(w: int, cap: int) -> int:
    """Number of weight-w profiles with parts <= cap, or ``MAX_PARTS // w + 1``
    once it exceeds ``MAX_PARTS // w``.  After part ``k``, ``ways[s]``
    counts the profiles of weight ``s`` with parts <= k."""
    limit = MAX_PARTS // w
    cap = min(cap, w)
    if cap == 1:
        return 1
    if w // 2 + 1 > limit:  # the profiles 2^j 1^(w-2j) alone
        return limit + 1
    ways = [1] + [0] * w
    for part in range(1, cap + 1):
        for s in range(part, w + 1):
            ways[s] += ways[s - part]
        if ways[w] > limit:
            return limit + 1
    return ways[w]


def max_score_brute_force(
    w: int, q: int
) -> tuple[int, tuple[FiltrationProfile, ...]]:
    """Exhaustive maximum of the score over all profiles of weight w, cap q.

    Iterates over all lengths 1..w.  Returns the maximum and every
    maximizer, sorted.  Independent oracle for the closed form.  Refuses,
    before walking any, more than :data:`MAX_PARTS` profiles times w.
    """
    _require_at_least(1, weight=w, cap=q)
    if _profile_count(w, q) * w > MAX_PARTS:
        raise ValueError(f"weight {w} cap {q}: more than {MAX_PARTS // w} profiles, so "
                         f"profiles times weight is more than MAX_PARTS = {MAX_PARTS}; "
                         "refusing the exhaustive search")
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
    """(2(g-1)/(pw)) * sum(((p-1)/2 - i) r_i), evaluated exactly as
    (g-1) * sum((p-1-2i) r_i) / (pw)."""
    _require_integers(genus=g, characteristic=p)
    parts = _integer_tuple("parts", parts)
    if not parts:
        raise ValueError("profile needs at least one part")
    total = sum((p - 1 - 2 * i) * r for i, r in enumerate(parts))
    return Fraction((g - 1) * total, p * sum(parts))


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


class OperSlopeBound(_Value):
    """What :func:`oper_subbundle_slope_bound` returns: the exact ``bound`` and
    whether it is ``within_semistable_target``."""

    __slots__ = ("bound", "within_semistable_target")


def oper_subbundle_slope_bound(
    profile: FiltrationProfile, Q: BundleNumerics, l: int, g: int
) -> OperSlopeBound:
    """mu(Q) + (2g-2)/w * score: slope bound for a subbundle of a length-l
    flagged bundle inducing this profile, and whether it stays within the
    semistability target mu(Q) + (l-1)(g-1).  It always does."""
    _require_at_least(1, flag_length=l)
    _require_at_least(2, genus=g)
    if profile.m > l - 1:
        raise ValueError(
            f"profile has {profile.m + 1} parts, flag has length {l}"
        )
    bound = Q.slope + Fraction(2 * g - 2, profile.weight) * profile_score(profile)
    target = Q.slope + (l - 1) * (g - 1)
    return OperSlopeBound(bound, bound <= target)


def rearrangement_check(profile: FiltrationProfile) -> bool:
    """sum over i <= m/2 of (m - 2i)(r_i - r_{m-i}) is >= 0, and equals
    m w - 2 :func:`profile_score`, where w is the weight.

    The identity holds for any parts: pairing i with m - i in
    sum over all i of (m - 2i) r_i = m w - 2 sum(i r_i) gives the sum above,
    whose middle term for even m is 0.  The inequality is always true for
    weakly decreasing profiles; exposed as a law.
    """
    m, r = profile.m, profile.parts
    total = sum((m - 2 * i) * (r[i] - r[m - i]) for i in range(m // 2 + 1))
    return total >= 0 and total == m * profile.weight - 2 * profile_score(profile)


def key_inequality_check(l: int, m_values: Sequence[int]) -> bool:
    """2(m_{l-1} + 2 m_{l-2} + ... + (l-1) m_1) <= (2l-1)(m_1 + ... + m_{l-1}).

    Coefficient j pairs with m_{l-j}, following the displayed formula
    literally.  The slack is sum over j of (2l-1-2j) m_{l-j}, that is
    (2i-1) m_i summed over i = 1 .. l-1: every coefficient is >= 1, so the
    inequality holds for nonnegative m_i, with equality exactly when all are
    0.  True when the slack equals that sum; exposed as a law.
    """
    _require_at_least(2, l=l)
    m_values = _integer_tuple("m values", m_values)
    if len(m_values) != l - 1:
        raise ValueError(f"expected {l - 1} values, got {len(m_values)}")
    if any(m < 0 for m in m_values):
        raise ValueError("m values must be nonnegative")
    lhs = 2 * sum(j * m_values[l - j - 1] for j in range(1, l))
    rhs = (2 * l - 1) * sum(m_values)
    return rhs - lhs == sum((2 * i + 1) * m for i, m in enumerate(m_values))

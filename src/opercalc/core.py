"""Exact polygon arithmetic: bundle numerics, convex HN polygons, dominance order.

Everything here is a pure value computed with :class:`fractions.Fraction`;
no floating point is used anywhere in the package, and polygon breakpoints
must be integers.  The dominance order is decided in integers, without
building a ``Fraction``: :func:`shatz_leq` tests one polygon's breakpoints
against the other by cross-multiplication, and :func:`strata_poset` compares
values at x = 1 .. r-1 scaled by lcm(1, ..., r), one Python-int bitset of
dominating elements per polygon.  :meth:`HNPolygon.value_at` and the rest of
the public API still return ``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from math import lcm
from operator import index
from typing import Iterable, Sequence


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def rational_to_json(x: Fraction) -> dict:
    """Serialize an exact rational as decimal strings (arbitrary precision)."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def rational_from_json(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def format_rational(x: Fraction) -> str:
    """Human-readable exact form: ``a/b``, or just ``a`` when integral."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class CurveParams:
    """Ambient arithmetic context: genus and characteristic.

    ``p = 0`` is allowed for characteristic-zero formulas that never
    mention the characteristic; positive ``p`` must be prime.
    """

    g: int
    p: int = 0

    def __post_init__(self) -> None:
        if self.g < 2:
            raise ValueError(f"genus must be >= 2, got {self.g}")
        if self.p < 0:
            raise ValueError(f"characteristic must be >= 0, got {self.p}")
        if self.p > 0 and not _is_prime(self.p):
            raise ValueError(f"positive characteristic must be prime, got {self.p}")

    def require_positive_char(self) -> int:
        if self.p == 0:
            raise ValueError("operation requires positive characteristic")
        return self.p


@dataclass(frozen=True, order=True)
class BundleNumerics:
    """Discrete invariants of a bundle: (rank, degree) with exact slope."""

    rank: int
    degree: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


@dataclass(frozen=True, order=True)
class HNPolygon:
    """Strictly convex polygon with integer breakpoints, starting at (0, 0).

    Ranks strictly increase along the breakpoint list and successive
    segment slopes strictly decrease, so each numerical HN filtration has
    exactly one representation (collinear interior points are forbidden).
    The straight segment with no interior breakpoints is admitted as the
    degenerate (semistable) polygon.
    """

    breakpoints: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        try:
            pts = tuple((index(r), index(d)) for r, d in self.breakpoints)
        except TypeError:
            raise ValueError(
                f"breakpoints must be integer pairs, got {self.breakpoints}"
            ) from None
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError("polygon needs at least two breakpoints")
        if pts[0] != (0, 0):
            raise ValueError(f"first breakpoint must be (0, 0), got {pts[0]}")
        segs = []  # (width, rise) per segment, width > 0
        for (r0, d0), (r1, d1) in zip(pts, pts[1:]):
            if r1 <= r0:
                raise ValueError("breakpoint ranks must strictly increase")
            segs.append((r1 - r0, d1 - d0))
        for (w0, h0), (w1, h1) in zip(segs, segs[1:]):
            if h1 * w0 >= h0 * w1:  # slope h1/w1 >= h0/w0
                raise ValueError(
                    "segment slopes must strictly decrease (strict convexity)"
                )

    @property
    def total_rank(self) -> int:
        return self.breakpoints[-1][0]

    @property
    def total_degree(self) -> int:
        return self.breakpoints[-1][1]

    @property
    def endpoint(self) -> tuple[int, int]:
        return self.breakpoints[-1]

    def segment_slopes(self) -> tuple[Fraction, ...]:
        """Slopes of the segments, left to right (strictly decreasing)."""
        return tuple(
            Fraction(d1 - d0, r1 - r0)
            for (r0, d0), (r1, d1) in zip(self.breakpoints, self.breakpoints[1:])
        )

    def quotient_data(self) -> tuple[tuple[int, int], ...]:
        """Per-quotient (rank, degree) pairs read bottom-up.

        Pair ``i`` (0-based) has slope equal to the ``i``-th smallest
        segment slope, so the slopes of the returned pairs strictly
        increase; this is the inverse of :func:`polygon_from_quotient_data`.
        """
        segs = [
            (r1 - r0, d1 - d0)
            for (r0, d0), (r1, d1) in zip(self.breakpoints, self.breakpoints[1:])
        ]
        return tuple(reversed(segs))

    def value_at(self, x: int | Fraction) -> Fraction:
        """Piecewise-linear interpolation at ``x``, exact."""
        x = Fraction(x)
        if x < 0 or x > self.total_rank:
            raise ValueError(f"abscissa {x} outside [0, {self.total_rank}]")
        for (r0, d0), (r1, d1) in zip(self.breakpoints, self.breakpoints[1:]):
            if x <= r1:
                return d0 + Fraction(d1 - d0, r1 - r0) * (x - r0)
        raise AssertionError("unreachable")

    def to_json(self) -> dict:
        return {"breakpoints": [[r, d] for r, d in self.breakpoints]}

    @classmethod
    def from_json(cls, obj: dict) -> "HNPolygon":
        return cls(tuple(obj["breakpoints"]))  # the constructor checks the pairs

    @classmethod
    def trivial(cls, rank: int) -> "HNPolygon":
        """The semistable degree-0 polygon: a single segment to (rank, 0)."""
        return cls(((0, 0), (rank, 0)))


def polygon_from_quotient_data(
    ranks: Sequence[int], degrees: Sequence[int]
) -> HNPolygon:
    """Build the polygon whose quotients, read bottom-up, are (ranks, degrees).

    The slopes ``degrees[i] / ranks[i]`` must strictly increase; the polygon
    then has breakpoints given by the reversed cumulative sums, so its
    segment slopes strictly decrease.
    """
    if len(ranks) == 0:
        raise ValueError("empty quotient data")
    if len(ranks) != len(degrees):
        raise ValueError("ranks and degrees must have equal length")
    if any(n < 1 for n in ranks):
        raise ValueError("quotient ranks must be positive")
    slopes = [Fraction(d, n) for n, d in zip(ranks, degrees)]
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 <= s0:
            raise ValueError("quotient slopes must strictly increase")
    pts = [(0, 0)]
    r_acc = d_acc = 0
    for n, d in zip(reversed(ranks), reversed(degrees)):
        r_acc += n
        d_acc += d
        pts.append((r_acc, d_acc))
    return HNPolygon(tuple(pts))


def _below(a: HNPolygon, b: HNPolygon) -> bool:
    """True iff every breakpoint of ``a`` lies on or below ``b``.

    ``a`` must not reach past ``b``'s last rank.  A point ``(x, y)`` on the
    segment ``(r0, d0)-(r1, d1)`` of ``b`` passes when
    ``y <= d0 + (d1 - d0)(x - r0)/(r1 - r0)``, tested with the width
    ``r1 - r0 > 0`` multiplied through.
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


def shatz_leq(a: HNPolygon, b: HNPolygon) -> bool:
    """True iff ``b`` lies on or above ``a`` (``a`` below ``b`` in the
    dominance order on polygons with common endpoints).

    On each segment of ``a`` the difference ``b - a`` is concave, so its
    minimum is at the segment's ends: testing the breakpoints of ``a``
    decides dominance everywhere.
    """
    if a.endpoint != b.endpoint:
        raise ValueError(
            f"polygons not comparable: endpoints {a.endpoint} != {b.endpoint}"
        )
    return _below(a, b)


@dataclass(frozen=True)
class PosetDescription:
    """Hasse diagram of a finite set of polygons under dominance.

    ``elements`` is sorted lexicographically by breakpoint list; ``covers``
    holds index pairs ``(i, j)`` meaning ``elements[j]`` covers
    ``elements[i]`` (i.e. is strictly above with nothing in between).
    """

    elements: tuple[HNPolygon, ...]
    covers: tuple[tuple[int, int], ...]

    def maximal_indices(self) -> tuple[int, ...]:
        not_max = {i for i, _ in self.covers}
        return tuple(i for i in range(len(self.elements)) if i not in not_max)

    def minimal_indices(self) -> tuple[int, ...]:
        not_min = {j for _, j in self.covers}
        return tuple(i for i in range(len(self.elements)) if i not in not_min)


# strata_poset holds one n-bit dominance set per element, n² bits in all:
# about 110 MB at this limit.  It admits r=8 g=3 (29 427 polygons) and
# refuses r=7 g=4 (34 575).
STRATA_MAX_ELEMENTS = 30_000


def strata_poset(polygons: Iterable[HNPolygon]) -> PosetDescription:
    """Cover relations of a finite set of polygons under :func:`shatz_leq`.

    Polygons with integer breakpoints and a common endpoint ``(r, d)`` are
    linear between consecutive integers, so ``a <= b`` iff ``a(x) <= b(x)``
    at ``x = 1 .. r-1``: the componentwise order on the vectors of
    :func:`_scaled_values`.  For each ``x`` one sort by value gives the sets
    "value at least v", and ``above[i]`` is their AND over all ``x``, in the
    coordinate-wise manner of Kung, Luccio and Preparata, "On finding the
    maxima of a set of vectors" (J. ACM 1975).  Bits are positions in
    increasing area, a linear extension (a polygon strictly below another
    has strictly smaller area), so the lowest bit above ``i`` that no cover
    found so far lies below is the next cover of ``i``.

    More than :data:`STRATA_MAX_ELEMENTS` distinct polygons raise
    ``ValueError`` before any dominance set is built.
    """
    elements = tuple(sorted(set(polygons), key=lambda p: p.breakpoints))
    n = len(elements)
    if n > STRATA_MAX_ELEMENTS:
        raise ValueError(
            f"strata_poset got {n} polygons, above the limit of {STRATA_MAX_ELEMENTS}; "
            f"their dominance sets would take {n}² bits ({n ** 2 // 8_000_000} MB) of memory"
        )
    if not elements:
        return PosetDescription((), ())
    endpoint = elements[0].endpoint
    for p in elements:
        if p.endpoint != endpoint:
            raise ValueError("all polygons must share the same endpoints")
    scale = lcm(*range(1, endpoint[0] + 1))
    vectors = [_scaled_values(p, scale) for p in elements]
    order = sorted(range(n), key=lambda i: sum(vectors[i]))  # position -> index
    # above[q] has bit t set iff the polygon at position t is on or above the
    # one at position q: at every x, its value is at least as large.
    above = [(1 << n) - 1] * n
    for column in zip(*(vectors[i] for i in order)):
        at_least = 0
        ranked = sorted(range(n), key=column.__getitem__, reverse=True)
        for _, group in groupby(ranked, key=column.__getitem__):
            members = list(group)
            for q in members:
                at_least |= 1 << q
            for q in members:
                above[q] &= at_least
    covers_of: list[list[int]] = [[] for _ in elements]
    for q, i in enumerate(order):
        rem = above[q] & ~(1 << q)
        while rem:
            low = rem & -rem
            k = low.bit_length() - 1
            covers_of[i].append(order[k])
            rem &= ~(above[k] | low)  # low too, so the loop ends whatever above[k] holds
    covers = tuple((i, j) for i, js in enumerate(covers_of) for j in sorted(js))
    return PosetDescription(elements, covers)


def _scaled_values(poly: HNPolygon, scale: int) -> tuple[int, ...]:
    """``scale * poly(x)`` at ``x = 1 .. r-1``, as running sums of unit rises.

    ``scale`` must be a multiple of every segment width, as
    ``lcm(1, ..., r)`` is, so that every rise is an integer.
    """
    rises: list[int] = []
    for (r0, d0), (r1, d1) in zip(poly.breakpoints, poly.breakpoints[1:]):
        rises += [(d1 - d0) * (scale // (r1 - r0))] * (r1 - r0)
    return tuple(accumulate(rises[:-1]))

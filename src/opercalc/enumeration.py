"""Exhaustive enumeration of admissible degree-0 HN polygons and the
dominance verification against the oper polygon.

A degree-0 rank-r polygon is admissible when successive quotient slopes
differ by at most 2g-2 (the slope-gap constraint for semistable local
systems).  Admissible polygons of fixed rank form a finite set; the gap
constraint together with degree 0 bounds every slope by (l-1)(2g-2) in
absolute value, which truncates the search.  A listing is refused past
:data:`MAX_POLYGONS` polygons, a count that grows with both r and g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .core import HNPolygon, polygon_from_quotient_data, shatz_leq
from .opers import oper_polygon

# r=8 g=4, the largest listing measured to finish, has 238 211 polygons: it
# enumerates in 3.7 s and peaks at about 426 MB as a JSON listing.
MAX_POLYGONS = 250_000


def _too_many(r: int, g: int) -> ValueError:
    return ValueError(f"rank {r} genus {g} has more than MAX_POLYGONS = "
                      f"{MAX_POLYGONS} admissible polygons; refusing to list them")


def _complete(
    r: int,
    g: int,
    pts: list[tuple[int, int]],
    prev: tuple[int, int] | None,
    out: list[HNPolygon],
) -> None:
    """Extend a partial breakpoint chain ending at pts[-1] to (r, 0).

    ``prev`` is the slope of the last segment as an integer pair
    ``(rise, run)`` with ``run > 0``, or None at the origin.  Chains are
    found in increasing lexicographic order of their breakpoints, each once.
    """
    x, y = pts[-1]
    gap = 2 * g - 2
    for x2 in range(x + 1, r + 1):
        dx = x2 - x
        if prev is None:
            y2_hi = y + (r - 1) * gap * dx
            y2_lo = -(r - 1) * gap * dx  # slack; tightened below
        else:
            # slope strictly below the previous one, gap at most 2g-2:
            # y2_hi = ceil(y + prev*dx) - 1, y2_lo = ceil(y + (prev - gap)*dx)
            rise, run = prev
            y2_hi = y - (-rise * dx) // run - 1
            y2_lo = y - ((gap * run - rise) * dx) // run
        if x2 == r:
            if y2_lo <= 0 <= y2_hi:
                if len(out) == MAX_POLYGONS:
                    raise _too_many(r, g)
                out.append(HNPolygon(tuple(pts) + ((r, 0),)))
            continue
        rest = r - x2
        for y2 in range(max(1, y2_lo), y2_hi + 1):
            # remaining chord slope c = -y2/rest: strictly below the slope
            # s = (y2-y)/dx, and reachable within at most `rest` further
            # drops of 2g-2: s - rest*gap <= c < s, scaled by dx*rest > 0
            s_scaled = (y2 - y) * rest
            if not (s_scaled - gap * dx * rest * rest <= -y2 * dx < s_scaled):
                continue
            pts.append((x2, y2))
            _complete(r, g, pts, (y2 - y, dx), out)
            pts.pop()


def enumerate_admissible(r: int, g: int) -> tuple[HNPolygon, ...]:
    """Every admissible degree-0 rank-r polygon, including the trivial
    segment, in canonical order; ValueError past :data:`MAX_POLYGONS`."""
    if r < 2:
        raise ValueError(f"rank must be >= 2, got {r}")
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    # Unit segments with integer slopes s_i = -s_{r+1-i}, falling by 1 or 2
    # at each step, make at least 2^(r//2 - 1) admissible polygons.  Once that
    # exceeds the limit (r >= 38), refuse before a search whose nodes each loop
    # over r abscissae: it would not finish at ranks in the thousands.
    if r // 2 - 1 >= MAX_POLYGONS.bit_length():
        raise _too_many(r, g)
    out: list[HNPolygon] = []
    _complete(r, g, [(0, 0)], None, out)
    return tuple(out)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_admissible_slow(r: int, g: int) -> tuple[HNPolygon, ...]:
    """Independent oracle: enumerate quotient data (rank, degree) vectors
    within the proven degree bounds, each degree kept to slopes that
    increase by at most the gap, and keep those of total degree 0.  Slower
    than :func:`enumerate_admissible` but structurally unrelated to it."""
    if r < 2 or g < 2:
        raise ValueError("need r >= 2 and g >= 2")
    gap = 2 * g - 2
    found: set[HNPolygon] = set()

    def extend(degrees: tuple[int, ...], comp: tuple[int, ...], bound: int) -> None:
        i = len(degrees)
        if i == len(comp):
            if sum(degrees) == 0:
                found.add(polygon_from_quotient_data(comp, degrees))
            return
        n = comp[i]
        lo, hi = -n * bound, n * bound
        if degrees:
            # slope d/n strictly above the previous one, by at most the gap
            prev = Fraction(degrees[-1], comp[i - 1])
            lo = max(lo, (n * prev).__floor__() + 1)
            hi = min(hi, (n * (prev + gap)).__floor__())
        for d in range(lo, hi + 1):
            extend(degrees + (d,), comp, bound)

    for l in range(1, r + 1):
        bound = (l - 1) * gap
        for comp in _compositions(r, l):
            extend((), comp, bound)
    return tuple(sorted(found, key=lambda p: p.breakpoints))


@dataclass(frozen=True)
class MaximalityReport:
    r: int
    g: int
    polygons: tuple[HNPolygon, ...] = field(repr=False)
    all_dominated: bool
    oper_polygon_present: bool
    counterexamples: tuple[HNPolygon, ...]

    @property
    def count(self) -> int:
        return len(self.polygons)

    @property
    def unique_maximum(self) -> bool:
        """Whether the oper polygon is the only maximal admissible polygon.

        Implied by the two stored facts.  If every polygon lies under the oper
        polygon and the oper polygon is present, no other polygon is maximal,
        and the oper polygon is: any q above it is also under it, so q equals
        it by antisymmetry of the Shatz order on canonical polygons.  If
        either fact fails, the oper polygon is absent or some polygon is not
        under it, so it is not the unique maximum.
        """
        return self.all_dominated and self.oper_polygon_present

    @property
    def passed(self) -> bool:
        return self.unique_maximum


def verify_oper_maximality(r: int, g: int) -> MaximalityReport:
    """Check that the oper polygon dominates every admissible polygon and is
    itself admissible, hence the unique admissible maximum."""
    polys = enumerate_admissible(r, g)
    top = oper_polygon(r, g)
    counterexamples = tuple(p for p in polys if not shatz_leq(p, top))
    return MaximalityReport(
        r=r,
        g=g,
        polygons=polys,
        all_dominated=not counterexamples,
        oper_polygon_present=top in polys,
        counterexamples=counterexamples,
    )


def verify_target_inequalities(polygon: HNPolygon, g: int) -> bool:
    """Check deg(V_i) <= (g-1)(n_1+...+n_i)(n_{i+1}+...+n_l) for every flag
    step, straight from the polygon's quotient data.

    Equivalent to dominance by the oper polygon of the same rank.
    """
    if polygon.breakpoints[-1][1] != 0:
        raise ValueError("target inequalities apply to degree-0 polygons")
    qd = polygon.quotient_data()  # slopes increasing: bottom-up order
    l = len(qd)
    for i in range(1, l):
        # deg(V_i) is the sum of the degrees of the quotients above step i
        deg_vi = sum(d for _, d in qd[i:])
        low = sum(n for n, _ in qd[:i])
        high = sum(n for n, _ in qd[i:])
        if deg_vi > (g - 1) * low * high:
            return False
    return True


def key_inequality_check(l: int, m_values: Sequence[int]) -> bool:
    """2(m_{l-1} + 2 m_{l-2} + ... + (l-1) m_1) <= (2l-1)(m_1 + ... + m_{l-1}).

    Coefficient j pairs with m_{l-j}, following the displayed formula
    literally.  Always true for nonnegative m_i; exposed as a law.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    if len(m_values) != l - 1:
        raise ValueError(f"expected {l - 1} values, got {len(m_values)}")
    if any(m < 0 for m in m_values):
        raise ValueError("m values must be nonnegative")
    lhs = 2 * sum(j * m_values[l - j - 1] for j in range(1, l))
    rhs = (2 * l - 1) * sum(m_values)
    return lhs <= rhs


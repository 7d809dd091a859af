"""Exhaustive enumeration of admissible degree-0 HN polygons and the
dominance verification against the oper polygon.

A degree-0 rank-r polygon is admissible when successive quotient slopes
differ by at most 2g-2 (the slope-gap constraint for semistable local
systems).  Admissible polygons of fixed rank form a finite set; the gap
constraint together with degree 0 bounds every slope by (l-1)(2g-2) in
absolute value, which truncates the search.  The search counts its chains before it
walks any and refuses more than :data:`MAX_POLYGONS` (a count that grows with r and g),
so every listing and check refuses alike before its first polygon; ``strata_poset``
refuses its own, smaller ``STRATA_MAX_ELEMENTS`` + 1st polygon as it reads them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Callable, Iterator, TypeVar

from .core import HNPolygon, _require_at_least, _Value, polygon_from_quotient_data
from .opers import oper_polygon

_Acc = TypeVar("_Acc")  # a chain's fold: a tuple or a string
_Item = TypeVar("_Item")  # what it yields per chain
_Steps = tuple[tuple[int, range], ...]  # each next x with its range of next y: see _steps

# r=8 g=4, the largest listing measured to finish, has 238 211 polygons: it lists in about
# 0.25 s and 17 MB as JSON, 1.0 s and 19 MB as csv and 1.1 s and 67 MB as a table, which
# tests/gates.py holds under 25, 30 and 80 MB (2-CPU host, Python 3.11.7).
MAX_POLYGONS = 250_000


def _steps(r: int, g: int, x: int, y: int, prev: tuple[int, int]) -> tuple[_Steps, bool]:
    """The steps out of breakpoint (x, y) past the origin, reached by a
    segment of slope ``prev``.

    ``prev`` is an integer pair ``(rise, run)`` with ``run > 0``.  Returns
    each ``x2 < r`` with the non-empty range of ``y2`` that :func:`_complete`
    may put next, in increasing ``x2``, and whether (r, 0) may close the chain.
    """
    gap = 2 * g - 2
    width = r - x
    rise, run = prev
    steps = []
    for x2 in range(x + 1, r + 1):
        dx = x2 - x
        # slope strictly below the previous one, gap at most 2g-2:
        # y2_hi = ceil(y + prev*dx) - 1, y2_lo = ceil(y + (prev - gap)*dx)
        y2_hi = y - (-rise * dx) // run - 1
        y2_lo = y - ((gap * run - rise) * dx) // run
        if x2 == r:
            break
        rest = r - x2
        # remaining chord slope c = -y2/rest: strictly below the slope
        # s = (y2-y)/dx, and reachable within at most `rest` further drops
        # of 2g-2: s - rest*gap <= c < s.  Scaled by dx*rest > 0 this is
        # y*rest < y2*(r-x) <= y*rest + gap*dx*rest^2.  Past the origin
        # y >= 1, so lo >= 1.  Comparisons, not max() and min(), take a
        # third less time.
        lo = y * rest // width + 1
        if lo < y2_lo:
            lo = y2_lo
        hi = (y * rest + gap * dx * rest * rest) // width
        if hi > y2_hi:
            hi = y2_hi
        if lo <= hi:
            steps.append((x2, range(lo, hi + 1)))
    return tuple(steps), y2_lo <= 0 <= y2_hi


def _complete(r: int, g: int, start: _Acc, piece: Callable[[int, int], _Acc],
              close: Callable[[_Acc], _Item]) -> Iterator[_Item]:
    """Fold each breakpoint chain from (0, 0) to (r, 0) that :func:`_steps`
    allows past the origin, whose steps are in closed form, and yield
    ``close`` of each fold.

    A chain's fold is ``start`` followed by ``piece(x, y)`` of each later
    breakpoint (x, y), joined by ``+``: tuples or strings.  A node of the
    search tree holds the fold of the chain up to it and extends its parent's
    fold by one concatenation, so every chain through a node shares the
    node's fold.  ``piece`` is called once per search state, when the state's
    steps are computed, and (r, 0)'s piece once per walk.

    Chains are folded in increasing lexicographic order of their
    breakpoints, each once: at each breakpoint, the steps in increasing
    ``x2`` and then ``y2``, and (r, 0) last.

    Each chain is a valid :class:`HNPolygon` by construction, so it may be
    built without the constructor's checks: it starts at (0, 0) and ends at
    (r, 0) with r >= 2 (two points at least); ``x2 > x`` raises the rank at
    every step; ``y2 <= y2_hi = ceil(y + prev*dx) - 1`` puts each slope
    strictly below the one before; and every coordinate is an int computed
    from ints.  The steps out of a breakpoint depend only on x, y and the
    ratio rise/run of ``prev``, so one table per ``(x, y, rise, run)``,
    computed at its first visit and reused for the length of the walk, is
    exact.  The tables hold ranges, not children, so the walk stays lazy.
    """
    # tables[x, y, x2][y2] is the table of breakpoint (x2, y2) reached from
    # (x, y): the state (x2, y2, y2 - y, x2 - x), keyed so that the walk
    # builds no tuple for a key as it reads the ys of a step.  A table holds
    # the state's steps, whether (r, 0) closes it, and its piece.
    tables: dict[tuple[int, int, int], dict[int, tuple[_Steps, bool, _Acc]]] = {}
    last = piece(r, 0)

    def walk(x: int, y: int, steps: _Steps, acc: _Acc) -> Iterator[_Item]:
        for x2, ys in steps:
            reached = tables.get((x, y, x2))
            if reached is None:
                reached = tables[x, y, x2] = {}
            for y2 in ys:
                table = reached.get(y2)
                if table is None:
                    table = reached[y2] = (*_steps(r, g, x2, y2, (y2 - y, x2 - x)),
                                           piece(x2, y2))
                below, closes, tip = table
                here = acc + tip
                if below:  # no generator for a breakpoint that only closes
                    yield from walk(x2, y2, below, here)
                if closes:
                    yield close(here + last)

    try:
        yield from walk(0, 0, _origin(r, g), start)
    finally:
        # walk reaches itself through its closure, a cycle that would keep
        # the tables until the cyclic collector ran; breaking it frees them
        # as soon as the walk ends or is closed.
        del walk
    yield close(start + last)  # (r, 0) always closes the origin: the semistable polygon


def _origin(r: int, g: int) -> _Steps:
    """The origin's steps: the chord bounds of :func:`_steps` at y = 0, where no slope
    precedes the first, lo = 1 and hi = gap*x2*(r-x2)^2 // r.  Each range is non-empty,
    since x2*(r-x2) >= r-1 and gap >= 2 give gap*x2*(r-x2)^2 >= 2(r-1) >= r."""
    gap = 2 * g - 2
    return tuple((x2, range(1, gap * x2 * (r - x2) ** 2 // r + 1)) for x2 in range(1, r))


def _count(r: int, g: int) -> int:
    """The number of chains that :func:`_complete` yields, or some number above
    :data:`MAX_POLYGONS` once it passes it: the transfer-matrix method (Stanley,
    *Enumerative Combinatorics* 1, §4.7) over the walk's states.  A memo keyed like
    the walk's tables holds each state's completions: 1 if (r, 0) closes it, plus those
    of each state it steps to.  A sum stops once past the limit, so every count held is
    exact or above it, and so is every sum of them."""
    limit = MAX_POLYGONS
    counts: dict[tuple[int, int, int], dict[int, int]] = {}

    def completions(x: int, y: int, steps: _Steps) -> int:
        total = 0
        for x2, ys in steps:
            reached = counts.setdefault((x, y, x2), {})  # read once per state, unlike the walk
            for y2 in ys:
                n = reached.get(y2)
                if n is None:
                    below, closes = _steps(r, g, x2, y2, (y2 - y, x2 - x))
                    n = reached[y2] = closes + completions(x2, y2, below)
                total += n
                if total > limit:
                    return total
        return total

    try:
        return 1 + completions(0, 0, _origin(r, g))  # 1: (r, 0) closes the origin
    finally:
        del completions  # the closure's cycle, broken as _complete breaks walk's


def _chains(r: int, g: int, start: _Acc, piece: Callable[[int, int], _Acc],
            close: Callable[[_Acc], _Item]) -> Iterator[_Item]:
    """:func:`_complete` over the admissible chains; checks r, g when called, and
    raises ValueError then if they have more than :data:`MAX_POLYGONS` chains."""
    _require_at_least(2, rank=r, genus=g)
    # Unit segments with integer slopes s_i = -s_{r+1-i}, falling by 1 or 2 at each step,
    # make at least 2^(r//2 - 1) admissible polygons.  Past the limit (r >= 38), refuse
    # before the count: the origin alone has r - 1 steps, and each state loops over r abscissae.
    if r // 2 - 1 >= MAX_POLYGONS.bit_length() or _count(r, g) > MAX_POLYGONS:
        raise ValueError(f"rank {r} genus {g} has more than MAX_POLYGONS = "
                         f"{MAX_POLYGONS} admissible polygons; refusing to list them")
    return _complete(r, g, start, piece, close)


def iter_admissible(r: int, g: int) -> Iterator[HNPolygon]:
    """Each admissible degree-0 rank-r polygon in canonical order, as :func:`_chains` limits it."""
    return _chains(r, g, ((0, 0),), lambda x, y: ((x, y),), HNPolygon._from_search)


def enumerate_admissible(r: int, g: int) -> tuple[HNPolygon, ...]:
    """:func:`iter_admissible` as a tuple.  Nothing in the package reads it: it stays
    public for the benchmark's cross-check (``perfbench/crosscheck.py``) and the tests."""
    return tuple(iter_admissible(r, g))


def enumerate_admissible_slow(r: int, g: int) -> tuple[HNPolygon, ...]:
    """Independent oracle: enumerate quotient data (rank, degree) vectors
    within the proven degree bounds and keep those of total degree 0.
    Slower than :func:`iter_admissible` but structurally unrelated to it.

    For each composition of r into parts n_0, ..., n_{l-1} read bottom-up,
    the degree d of part i ranges over the integers that meet every necessary
    condition below, so the walk is exhaustive.  Let S be the degree of the
    earlier parts, R the rank of the later ones and D = -(S + d) their degree
    (the total is 0), and W = sum over j > i of n_j (j - i).

    * Each slope lies within (l-1)(2g-2) of 0, and is strictly above the
      previous slope by at most the gap 2g-2.
    * Every later slope d_j/n_j exceeds d/n, so n d_j >= n_j d + 1, and
      summed over the later parts n D >= R d + 1 when R > 0, that is
      (n + R) d <= -n S - 1.
    * The later slope k parts up is at most d/n + k (2g-2) by the gap, so
      n d_j <= n_j d + n n_j (j - i)(2g-2), and summed n D <= R d + n (2g-2) W,
      that is (n + R) d >= -n S - n (2g-2) W.

    The last part's degree is then fixed at -S and kept if it meets the
    slope bounds.  The slopes strictly increase, so every partial sum of
    the quotient data is a vertex of the polygon, which thus determines the
    composition and the degrees: each one kept is a distinct polygon, and the
    walk lists them without a set that could hide a duplicate.
    """
    _require_at_least(2, rank=r, genus=g)
    gap = 2 * g - 2
    found: list[HNPolygon] = []

    def extend(degrees: tuple[int, ...], total: int, comp: tuple[int, ...],
               later: tuple[tuple[int, int], ...], bound: int) -> None:
        i = len(degrees)
        n = comp[i]
        lo, hi = -n * bound, n * bound
        if degrees:
            # slope d/n strictly above the previous one, by at most the gap
            d0, n0 = degrees[-1], comp[i - 1]
            lo = max(lo, n * d0 // n0 + 1)
            hi = min(hi, n * (d0 + gap * n0) // n0)
        if i == len(comp) - 1:
            # total degree 0 fixes the last degree
            if lo <= -total <= hi:
                found.append(polygon_from_quotient_data(comp, degrees + (-total,)))
            return
        rank, weight = later[i]
        # the later slopes lie above d/n and within the gap of it, step by step
        lo = max(lo, -((n * total + n * gap * weight) // (n + rank)))
        hi = min(hi, (-n * total - 1) // (n + rank))
        for d in range(lo, hi + 1):
            extend(degrees + (d,), total + d, comp, later, bound)

    for l in range(1, r + 1):
        bound = (l - 1) * gap
        # a composition of r into l parts is a choice of l - 1 cuts in 1 .. r-1
        for cuts in combinations(range(1, r), l - 1):
            ends = (0,) + cuts + (r,)
            comp = tuple(b - a for a, b in zip(ends, ends[1:]))
            # later[i] = (R, W) of part i, as suffix sums: W_i = W_{i+1} + R_i
            later, rank, weight = [], 0, 0
            for n in reversed(comp):
                weight += rank
                later.append((rank, weight))
                rank += n
            extend((), 0, comp, tuple(reversed(later)), bound)
    return tuple(sorted(found, key=lambda p: p.breakpoints))


class MaximalityReport(_Value):
    __slots__ = ("r", "g", "count", "oper_polygon_present", "counterexamples")

    @property
    def all_dominated(self) -> bool:
        return not self.counterexamples

    @property
    def unique_maximum(self) -> bool:
        """Whether the oper polygon is the only maximal admissible polygon.

        Implied by the two facts it combines.  If every polygon lies under
        the oper polygon and the oper polygon is present, no other polygon is
        maximal, and the oper polygon is: any q above it is also under it, so
        q equals it by antisymmetry of the Shatz order on canonical polygons.
        If either fact fails, the oper polygon is absent or some polygon is
        not under it, so it is not the unique maximum.
        """
        return self.all_dominated and self.oper_polygon_present


UNDER, OPER, ABOVE = "under", "oper", "above"  # a chain against the oper polygon: see _places


def _places(r: int, g: int, ceiling: int) -> Iterator[str]:
    """The place of each admissible chain of rank r and genus g against the
    genus-``ceiling`` oper polygon, in :func:`_chains` order: a table reads the
    sum of 1 and, for each breakpoint (x, y) past the origin, 1 if y is the oper
    polygon's value at x, r + 2 if above and 0 if below.  A chain has at most r
    such breakpoints and the oper polygon one at every integer x, so the sum is
    r + 1 iff the chain is the oper polygon (:data:`OPER`), and more iff some
    breakpoint lies above it (:data:`ABOVE`).  A chain is linear between its
    breakpoints and the oper polygon is concave, so the chain lies under it iff
    each breakpoint does: iff its sum is at most r + 1 (:data:`UNDER` or
    :data:`OPER`).  Read at the flag step V_i of rank x and degree y, these are
    the paper's target inequalities deg(V_i) <= (g-1) rk(V_i) (r - rk(V_i));
    the law ``target-inequality-equivalence`` checks both readings against
    ``shatz_leq``.
    """
    table: list[str] = []  # the place of each sum, 0 .. r(r+2)+1
    walk = _chains(r, g, 1, lambda x, y: (y >= top[x]) + (y > top[x]) * (r + 1), table.__getitem__)
    # built after _chains has checked r, g and the rank limit, before the walk reads them
    top = dict(oper_polygon(r, ceiling).breakpoints)
    table += [UNDER] * (r + 1) + [OPER] + [ABOVE] * (r * r + r)
    return walk


def verify_oper_maximality(r: int, g: int) -> MaximalityReport:
    """Check that the oper polygon dominates every admissible polygon and is
    itself admissible, hence the unique admissible maximum, holding no list.
    One walk tallies the places; only if some chain lies above the oper
    polygon does a second walk build the polygons, to name those above."""
    tally = Counter(_places(r, g, g))
    above = ()
    if ABOVE in tally:
        above = tuple(p for p, at in zip(iter_admissible(r, g), _places(r, g, g)) if at == ABOVE)
    return MaximalityReport(r=r, g=g, count=sum(tally.values()),
                            oper_polygon_present=OPER in tally, counterexamples=above)

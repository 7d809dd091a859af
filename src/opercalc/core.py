"""Exact polygon arithmetic: bundle numerics, convex HN polygons, dominance order.

Polygon breakpoints are integers, and no floating point is used anywhere in
the package.  Dominance is one rule, decided in integers without building a
``Fraction``: a polygon lies under another iff its values at x = 1 .. r-1,
scaled by lcm(1, ..., r) (:func:`_scaled_values`), are at most the other's.
:func:`shatz_leq` compares two such vectors and :func:`strata_poset` compares
them all at once, one Python-int bitset of dominating elements per polygon.
:meth:`HNPolygon.value_at` and the rest of the public API still return
``Fraction`` values.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from math import lcm
from operator import index, le
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2 .. 37.

    Exact below 318 665 857 834 031 151 167 461, the least strong
    pseudoprime to all twelve bases (Sorenson and Webster, "Strong
    pseudoprimes to twelve prime bases", 2015); larger ``n`` raise
    ``ValueError``.
    """
    if n >= 318_665_857_834_031_151_167_461:
        raise ValueError(f"cannot decide whether {n} is prime: the primality test "
                         "is exact only below 318665857834031151167461")
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for a in bases:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_integers(**values: object) -> None:
    """Raise ``ValueError`` naming the first value, in argument order, that is
    not an integer to :func:`operator.index`, so that no float or string reaches
    the arithmetic.  For arguments with no lower bound; see :func:`_require_at_least`."""
    try:
        for value in values.values():
            index(value)
    except TypeError:
        for name, value in values.items():  # find the first value at fault
            try:
                index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_at_least(minimum: int, **values: object) -> None:
    """Raise ``ValueError`` unless every value is an integer >= ``minimum``: name
    the first non-integer as :func:`_require_integers` does, else the first value
    below ``minimum``, in argument order.  The only code that words a lower bound;
    arguments with different minimums take one call each.  Valid values take one pass.
    """
    try:
        for value in values.values():
            if index(value) < minimum:
                break
        else:
            return
    except TypeError:
        pass
    _require_integers(**values)  # a later non-integer is named before an earlier low value
    for name, value in values.items():
        if index(value) < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _integer_tuple(name: str, values: Iterable[object]) -> tuple[int, ...]:
    """``values`` as a tuple, or ``ValueError``, naming them by their values,
    unless each is an integer to :func:`operator.index`."""
    try:
        values = tuple(values)  # an iterator is named by what it held
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{name} must be integers, got {values}") from None


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``; positional order is
    ``__slots__`` order.  A record that checks nothing declares only that:
    this constructor takes every field, all by position, all by keyword, or
    some by position and the rest by keyword, and raises ``TypeError``
    naming the class and its fields for any other call.  A class with checks
    writes its own ``__init__``, which runs them and then sets each field once
    through ``object.__setattr__``.  It does not chain to this one for speed: that
    costs about 1.5 µs more per object.  The polygons the search yields skip
    even their own checks (``HNPolygon._from_search``), which its integer bounds
    prove: re-checking them would more than double the search's time.  Equality needs
    the exact class and equal field values, the hash is that of the field
    values, and the repr reads ``Name(field=value, ...)``.  Assigning or
    deleting a field raises ``AttributeError``.  Copies and pickles are
    rebuilt through the constructor, so its checks run again.
    """

    __slots__ = ()
    _fields: tuple[str, ...]  # every slot of the class, base classes first

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in klass.__dict__.get("__slots__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        rest = fields[len(args):]
        if len(args) > len(fields) or kwargs.keys() != set(rest):
            raise TypeError(f"{self.__class__.__qualname__}() takes exactly the fields "
                            f"{', '.join(fields)}, by position or by keyword")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in rest:
            object.__setattr__(self, field, kwargs[field])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class CurveParams(_Value):
    """Ambient arithmetic context: genus and characteristic.

    ``p = 0`` is allowed for characteristic-zero formulas that never
    mention the characteristic; positive ``p`` must be prime.
    """

    __slots__ = ("g", "p")

    def __init__(self, g: int, p: int = 0) -> None:
        _require_at_least(2, genus=g)
        _require_at_least(0, characteristic=p)
        if p > 0 and not _is_prime(p):
            raise ValueError(f"positive characteristic must be prime, got {p}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "p", p)

    def require_positive_char(self) -> int:
        if self.p == 0:
            raise ValueError("operation requires positive characteristic")
        return self.p


class BundleNumerics(_Value):
    """Discrete invariants of a bundle: (rank, degree) with exact slope."""

    __slots__ = ("rank", "degree")

    def __init__(self, rank: int, degree: int) -> None:
        _require_at_least(1, rank=rank)
        _require_integers(degree=degree)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)

    @property
    def slope(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.degree, self.rank)


class HNPolygon(_Value):
    """Strictly convex polygon with integer breakpoints, starting at (0, 0).

    Ranks strictly increase along the breakpoint list and successive
    segment slopes strictly decrease, so each numerical HN filtration has
    exactly one representation (collinear interior points are forbidden).
    The straight segment with no interior breakpoints is admitted as the
    degenerate (semistable) polygon.
    """

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints: Iterable[tuple[int, int]]) -> None:
        try:
            breakpoints = tuple(breakpoints)  # an iterator is named by what it held
            pts = [(index(r), index(d)) for r, d in breakpoints]
        except (TypeError, ValueError):  # ValueError: a point that is not a pair
            raise ValueError(f"breakpoints must be integer pairs, got {breakpoints}") from None
        if pts and pts[0] != (0, 0):
            raise ValueError(f"first breakpoint must be (0, 0), got {pts[0]}")
        if len(pts) < 2:
            raise ValueError("polygon needs at least two breakpoints")
        w0 = h0 = None  # the previous segment's run and rise
        for (r0, d0), (r1, d1) in zip(pts, pts[1:]):
            w, h = r1 - r0, d1 - d0
            if w <= 0:
                raise ValueError("breakpoint ranks must strictly increase")
            if w0 is not None and h * w0 >= h0 * w:  # slope h/w >= h0/w0
                raise ValueError("segment slopes must strictly decrease (strict convexity)")
            w0, h0 = w, h
        object.__setattr__(self, "breakpoints", tuple(pts))

    @classmethod
    def _from_search(cls, breakpoints: tuple[tuple[int, int], ...]) -> HNPolygon:
        """The polygon on ``breakpoints``, which this does not check.

        The caller must have proved every invariant the constructor checks:
        a tuple of ``int`` pairs of at least two points, starting at (0, 0),
        with strictly increasing ranks and strictly decreasing slopes.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "breakpoints", breakpoints)
        return poly

    @property
    def total_rank(self) -> int:
        return self.breakpoints[-1][0]

    @property
    def endpoint(self) -> tuple[int, int]:
        return self.breakpoints[-1]

    def value_at(self, x: int | Fraction) -> Fraction:
        """Piecewise-linear interpolation at an ``int`` or ``Fraction`` ``x``, exact.

        With x = a/b on the segment from (r0, d0) to (r1, d1) of width w, the
        value d0 + (d1 - d0)(x - r0)/w is one fraction of integers:
        (d0 w b + (d1 - d0)(a - r0 b)) / (w b).
        """
        from fractions import Fraction

        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"abscissa must be an int or a Fraction, got {x!r}")
        a, b = x.numerator, x.denominator
        if a < 0 or a > self.total_rank * b:
            raise ValueError(f"abscissa {x} outside [0, {self.total_rank}]")
        for (r0, d0), (r1, d1) in zip(self.breakpoints, self.breakpoints[1:]):
            if a <= r1 * b:  # the range check puts x on some segment
                break
        w = r1 - r0
        return Fraction(d0 * w * b + (d1 - d0) * (a - r0 * b), w * b)


def polygon_from_quotient_data(
    ranks: Sequence[int], degrees: Sequence[int]
) -> HNPolygon:
    """Build the polygon whose quotients, read bottom-up, are (ranks, degrees).

    Ranks and degrees must be integers, or ``ValueError`` names them.  The
    ranks must be positive and the slopes ``degrees[i] / ranks[i]`` must
    strictly increase; the polygon then has breakpoints given by the reversed
    cumulative sums, so its segment slopes strictly decrease.  The
    :class:`HNPolygon` constructor rejects, in integers, any other input.
    """
    ranks = _integer_tuple("ranks", ranks)
    degrees = _integer_tuple("degrees", degrees)
    if len(ranks) == 0:
        raise ValueError("empty quotient data")
    if len(ranks) != len(degrees):
        raise ValueError("ranks and degrees must have equal length")
    return HNPolygon(tuple(zip(accumulate(reversed(ranks), initial=0),
                               accumulate(reversed(degrees), initial=0))))


def shatz_leq(a: HNPolygon, b: HNPolygon) -> bool:
    """True iff ``b`` lies on or above ``a`` (``a`` below ``b`` in the
    dominance order on polygons with common endpoints).

    Both polygons are linear between consecutive integers, so ``a <= b``
    iff the vector of :func:`_scaled_values` of ``a`` is componentwise at
    most that of ``b``.
    """
    if a.endpoint != b.endpoint:
        raise ValueError(
            f"polygons not comparable: endpoints {a.endpoint} != {b.endpoint}"
        )
    scale = lcm(*range(1, b.total_rank + 1))
    return all(map(le, _scaled_values(a, scale), _scaled_values(b, scale)))


class PosetDescription(_Value):
    """Hasse diagram of a finite set of polygons under dominance.

    ``elements`` is sorted lexicographically by breakpoint list; ``covers``
    holds index pairs ``(i, j)`` meaning ``elements[j]`` covers
    ``elements[i]`` (i.e. is strictly above with nothing in between).
    """

    __slots__ = ("elements", "covers")

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

    ``polygons`` is read up to the :data:`STRATA_MAX_ELEMENTS` + 1st distinct
    one, which raises ``ValueError`` before any dominance set is built.
    """
    distinct: set[HNPolygon] = set()
    for p in polygons:
        distinct.add(p)
        if (n := len(distinct)) > STRATA_MAX_ELEMENTS:
            raise ValueError(
                f"strata_poset got {n} polygons, above the limit of {STRATA_MAX_ELEMENTS}; "
                f"their dominance sets would take {n}² bits ({n ** 2 // 8_000_000} MB) of memory"
            )
    if not distinct:
        return PosetDescription((), ())
    elements = tuple(sorted(distinct, key=lambda p: p.breakpoints))  # the loop left n = len(distinct)
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

"""Closed-form oper invariants: polygons, quotient degree patterns, dimensions."""

from __future__ import annotations

from .core import BundleNumerics, CurveParams, HNPolygon, _require_at_least, _Value


class OperShape(_Value):
    """Numerical shape of a flagged bundle: first quotient, flag length, curve.

    The underlying bundle has rank ``rk(Q) * l`` and degree
    ``l (deg(Q) + rk(Q)(l-1)(g-1))``; both are derived, never stored.
    """

    __slots__ = ("quotient", "length", "curve")

    def __init__(self, quotient: BundleNumerics, length: int, curve: CurveParams) -> None:
        _require_at_least(1, length=length)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "curve", curve)

    @property
    def rank(self) -> int:
        return self.quotient.rank * self.length

    @property
    def degree(self) -> int:
        q, l, g = self.quotient, self.length, self.curve.g
        return l * (q.degree + q.rank * (l - 1) * (g - 1))

    @classmethod
    def degree_zero_type_one(cls, r: int, curve: CurveParams) -> "OperShape":
        """The canonical degree-0 type-1 shape: Q = (1, -(r-1)(g-1)), l = r."""
        _require_at_least(2, rank=r)
        q = BundleNumerics(1, -(r - 1) * (curve.g - 1))
        return cls(q, r, curve)


def oper_polygon(r: int, g: int) -> HNPolygon:
    """Polygon with breakpoints (i, i(r-i)(g-1)) for 0 <= i <= r."""
    _require_at_least(2, rank=r, genus=g)
    return HNPolygon(tuple((i, i * (r - i) * (g - 1)) for i in range(r + 1)))


def oper_quotient_degrees(shape: OperShape) -> tuple[BundleNumerics, ...]:
    """(rank, degree) of each graded piece of the flag, top quotient first.

    Piece ``i`` has rank ``rk(Q)`` and degree ``deg(Q) + i rk(Q)(2g-2)``;
    the degrees sum to the shape's total degree.
    """
    q, g = shape.quotient, shape.curve.g
    return tuple(
        BundleNumerics(q.rank, q.degree + i * q.rank * (2 * g - 2))
        for i in range(shape.length)
    )


def threshold_C(r: int, g: int) -> int:
    """The characteristic threshold r(r-1)(r-2)(g-1)."""
    _require_at_least(2, rank=r, genus=g)
    return r * (r - 1) * (r - 2) * (g - 1)


def oper_space_dimensions(r: int, g: int) -> int:
    """The dimension (g-1)(r^2 - 1) of the oper space, which is also that of
    the Hitchin base, the space of pluricanonical sections."""
    _require_at_least(2, rank=r, genus=g)
    return (g - 1) * (r * r - 1)

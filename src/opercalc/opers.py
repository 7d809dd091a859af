"""Closed-form oper invariants: the oper polygon, the threshold and the dimension.

The oper flag's shape and its quotient degrees are bundle numerics and live in
:mod:`opercalc.bundles`, which the polygon search does not load.
"""

from __future__ import annotations

from .core import HNPolygon, _require_at_least


def oper_polygon(r: int, g: int) -> HNPolygon:
    """Polygon with breakpoints (i, i(r-i)(g-1)) for 0 <= i <= r."""
    _require_at_least(2, rank=r, genus=g)
    return HNPolygon(tuple((i, i * (r - i) * (g - 1)) for i in range(r + 1)))


def threshold_C(r: int, g: int) -> int:
    """The characteristic threshold r(r-1)(r-2)(g-1)."""
    _require_at_least(2, rank=r, genus=g)
    return r * (r - 1) * (r - 2) * (g - 1)


def oper_space_dimensions(r: int, g: int) -> int:
    """The dimension (g-1)(r^2 - 1) of the oper space, which is also that of
    the Hitchin base, the space of pluricanonical sections."""
    _require_at_least(2, rank=r, genus=g)
    return (g - 1) * (r * r - 1)

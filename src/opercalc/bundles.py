"""Bundle numerics: the curve, a bundle's rank and degree, and the oper flag's shape.

Only the calculators that take a bundle or a characteristic read these
(``frobenius``, ``filtrations``, ``laws`` and the CLI's calculator subcommands);
the polygon search and its checks never do, so their processes do not load
this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import _require_at_least, _require_integers, _Value

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

"""Divisor sums, exact polynomials in c, complex powers, Bell polynomials.

The exact mode of every identity check lives in the ring Q[c]; CPolynomial
is that ring.  Its coefficients are kept in an integer normal form: a
coefficient is stored as a Python int when it is integral and as a Fraction
only when it is not, so the integer polynomials the identities produce run
on int arithmetic.  Fraction is the boundary: coefficient, items and exact
evaluation return Fraction.  Numeric mode works in complex doubles with j^z
defined through the principal real logarithm of the positive integer j.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from math import comb, isqrt
from operator import add
from typing import Sequence, Union

Scalar = Union[int, Fraction]

# Bell polynomial degree guard; the identity checks never need more.
BELL_DEGREE_CAP = 10

# _normal tests "every value is an int" as one issuperset call, at C speed
_INT = frozenset((int,))


def _exact(value: object) -> Scalar:
    """value in normal form: an int when integral, a Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("exact coefficients only; got a float")
    f = value if isinstance(value, Fraction) else Fraction(value)  # type: ignore[arg-type]
    return f.numerator if f.denominator == 1 else f


class CPolynomial:
    """A polynomial in one indeterminate c with exact rational coefficients.

    Stored as exponent -> coefficient with no zero entries, each coefficient
    an int when integral and a Fraction otherwise, so equality is syntactic
    equality of the normal form.  coefficient, items and evaluate at an
    exact point give Fraction; str and repr print every coefficient as a
    Fraction would.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: object = 0):
        if isinstance(coeffs, CPolynomial):
            self._coeffs = dict(coeffs._coeffs)
        elif isinstance(coeffs, dict):
            data: dict[int, Scalar] = {}
            for e, v in coeffs.items():
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponents must be nonnegative ints: {e}")
                f = _exact(v)
                if f:
                    data[e] = f
            self._coeffs = data
        else:
            f = _exact(coeffs)
            self._coeffs = {0: f} if f else {}

    @staticmethod
    def _normal(data: dict[int, Scalar]) -> "CPolynomial":
        """A polynomial around data, whose entries are nonzero ints or
        Fractions; integral Fractions become ints in place."""
        if not _INT.issuperset(map(type, data.values())):
            for e, v in data.items():
                data[e] = _exact(v)
        out = CPolynomial.__new__(CPolynomial)
        out._coeffs = data
        return out

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def coefficient(self, exponent: int) -> Fraction:
        return Fraction(self._coeffs.get(exponent, 0))

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((e, Fraction(v)) for e, v in sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: object) -> "CPolynomial":
        if isinstance(other, (int, Fraction)):
            other = CPolynomial(other)
        if not isinstance(other, CPolynomial):
            return NotImplemented
        data = dict(self._coeffs)
        for e, v in other._coeffs.items():
            s = data.get(e, 0) + v
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return CPolynomial._normal(data)

    __radd__ = __add__

    def __neg__(self) -> "CPolynomial":
        out = CPolynomial.__new__(CPolynomial)
        out._coeffs = {e: -v for e, v in self._coeffs.items()}
        return out

    def __sub__(self, other: object) -> "CPolynomial":
        if isinstance(other, (int, Fraction)):
            other = CPolynomial(other)
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "CPolynomial":
        return (-self) + other

    def __mul__(self, other: object) -> "CPolynomial":
        if isinstance(other, (int, Fraction)):
            f = _exact(other)
            return CPolynomial._normal({e: v * f for e, v in self._coeffs.items()} if f else {})
        if not isinstance(other, CPolynomial):
            return NotImplemented
        data: dict[int, Scalar] = {}
        for e1, v1 in self._coeffs.items():
            for e2, v2 in other._coeffs.items():
                e = e1 + e2
                s = data.get(e, 0) + v1 * v2
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        return CPolynomial._normal(data)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CPolynomial":
        if isinstance(other, (int, Fraction)):
            f = _exact(other)
            if not f:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / f)
        return NotImplemented

    def __pow__(self, k: int) -> "CPolynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = CPolynomial(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == CPolynomial(other)._coeffs
        return NotImplemented

    def evaluate(self, x: object):
        """Evaluate at x; a Fraction for Fraction/int x, complex otherwise."""
        exact = isinstance(x, (int, Fraction))
        if isinstance(x, float):
            x = complex(x)
        total = None
        for e, v in self._coeffs.items():
            term = v * x**e if e else v * (x**0)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if exact else 0j
        return Fraction(total) if exact else total

    __call__ = evaluate

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for e, v in sorted(self._coeffs.items()):
            if e == 0:
                pieces.append(str(v))
            else:
                var = "c" if e == 1 else f"c^{e}"
                if v == 1:
                    pieces.append(var)
                elif v == -1:
                    pieces.append(f"-{var}")
                else:
                    pieces.append(f"{v}*{var}")
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CPolynomial({dict(self.items())!r})"


# the indeterminate
C = CPolynomial({1: 1})


def divisors(n: int) -> list[int]:
    """Ascending positive divisors of n, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    small: list[int] = []
    large: list[int] = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def sigma_int(z: int, n: int) -> int:
    """Sum of d^z over divisors d of n, exact."""
    if not isinstance(z, int) or z < 0:
        raise ValueError("z must be a nonnegative integer")
    return sum(d**z for d in divisors(n))


def complex_power(j: int, z: complex) -> complex:
    """j^z = exp(z * ln j) for a positive integer j, principal logarithm."""
    if j < 1:
        raise ValueError("j must be a positive integer")
    if j == 1:
        return 1 + 0j
    return cmath.exp(complex(z) * math.log(j))


def _table(name: str, point, top: int, power) -> list[complex]:
    """power(e) for e = 0..top; an overflow is a ValueError naming the point."""
    try:
        return [power(e) for e in range(top + 1)]
    except OverflowError:
        raise ValueError(f"{name}={point} overflows a double at a power <= {top}") from None


def _z_powers(z: complex, top: int) -> list[complex]:
    """e^z for e = 0..top, entry 0 being 1 for z = 0 and 0 otherwise."""
    return _table("z", z, top, lambda e: complex_power(e, z) if e else complex(z == 0))


def _c_powers(c: complex, top: int) -> list[complex]:
    """complex(c)**e for e = 0..top, each by ** and not a running product."""
    c = complex(c)
    return _table("c", c, top, lambda e: c**e)


def _weigh(pairs, z_powers: Sequence[complex]) -> list[tuple[int, complex]]:
    """(e, a(e) * e^z) for each (e, a(e)) pair, from z's power table."""
    return [(e, a * z_powers[e]) for e, a in pairs]


def _sum_weighed(weighed, c_powers: Sequence[complex]) -> tuple[complex, float]:
    """sum_e w(e) * c^e over weighed pairs in their order, from c's power
    table, and the sum of the term magnitudes."""
    total = 0j
    magnitude = 0.0
    for e, w in weighed:
        term = w * c_powers[e]
        total += term
        magnitude += abs(term)
    return total, magnitude


def _weighed_value(weighed, c_powers: Sequence[complex]) -> complex:
    """The value of _sum_weighed, from the same terms in the same order,
    without the magnitude sum."""
    total = 0j
    for e, w in weighed:
        total += w * c_powers[e]
    return total


def fractional_weight(pairs, z: complex, c: complex) -> tuple[complex, float]:
    """sum_e a(e) * e^z * c^e over (e, a(e)) pairs in complex doubles, and
    the sum of the term magnitudes, whose ratio to the value is the
    condition estimate.

    This is the weight operator sending c^e to e^z * c^e, evaluated at c; a
    weight profile and CPolynomial.items() are both such pairs.  At e = 0
    it is the identity for z = 0 and annihilates the term otherwise,
    matching (c * d/dc)^k for integer k.

    It composes two stages over power tables, which numeric checks build
    once per grid point and call directly: _weigh forms a(e) * e^z, and
    _sum_weighed adds (a(e) * e^z) * c^e in the pairs' order.  e^z comes
    from complex_power and c^e from complex(c)**e, so every term, and so
    every sum, is bit-identical however the tables are shared.
    """
    pairs = tuple(pairs)
    top = max((e for e, _a in pairs), default=0)
    return _sum_weighed(_weigh(pairs, _z_powers(z, top)), _c_powers(c, top))


def bell_polynomial(m: int, u: Sequence, cap: int = BELL_DEGREE_CAP):
    """Complete Bell polynomial Y_m(u_1, ..., u_m) by the binomial recurrence.

        Y_0 = 1,   Y_{m+1} = sum_{k=0..m} C(m, k) * Y_{m-k} * u_{k+1}

    u may hold elements of any commutative ring that supports + and * with
    integers (rationals, CPolynomial, truncated series, symbolic terms).
    """
    return _bell_polynomials(m, u, cap)[m]


def _bell_polynomials(m: int, u: Sequence, cap: int = BELL_DEGREE_CAP) -> list:
    """[Y_0, ..., Y_m] from one pass of bell_polynomial's recurrence."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m > cap:
        raise ValueError(f"m={m} exceeds the Bell degree cap {cap}")
    if len(u) < m:
        raise ValueError(f"need {m} arguments, got {len(u)}")
    ys: list = [1]
    for i in range(m):
        ys.append(reduce(add, (comb(i, k) * ys[i - k] * u[k] for k in range(i + 1))))
    return ys

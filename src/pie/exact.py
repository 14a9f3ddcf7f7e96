"""Divisor sums, exact polynomials in c, complex powers, Bell polynomials.

The exact mode of every identity check lives in the ring Q[c]; CPolynomial
is that ring.  Numeric mode works in complex doubles with j^z defined through
the principal real logarithm of the positive integer j.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Sequence, Union

from .partitions import enumerate_partitions

Scalar = Union[int, Fraction]

# Bell polynomial degree guard; the identity checks never need more.
BELL_DEGREE_CAP = 10


def _exact(value: object) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact coefficients only; got a float")
    return Fraction(value)  # type: ignore[arg-type]


class CPolynomial:
    """A polynomial in one indeterminate c with exact rational coefficients.

    Stored as exponent -> coefficient with no zero entries, so equality is
    syntactic equality of the normal form.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: object = 0):
        if isinstance(coeffs, CPolynomial):
            self._coeffs = dict(coeffs._coeffs)
        elif isinstance(coeffs, dict):
            data: dict[int, Fraction] = {}
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

    @classmethod
    def coerce(cls, value: object) -> "CPolynomial":
        return value if isinstance(value, CPolynomial) else cls(value)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def coefficient(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, Fraction(0))

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._coeffs.items()))

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
        out = CPolynomial.__new__(CPolynomial)
        out._coeffs = data
        return out

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
            out = CPolynomial.__new__(CPolynomial)
            out._coeffs = {e: v * f for e, v in self._coeffs.items()} if f else {}
            return out
        if not isinstance(other, CPolynomial):
            return NotImplemented
        data: dict[int, Fraction] = {}
        for e1, v1 in self._coeffs.items():
            for e2, v2 in other._coeffs.items():
                e = e1 + e2
                s = data.get(e, 0) + v1 * v2
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        out = CPolynomial.__new__(CPolynomial)
        out._coeffs = data
        return out

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
        """Evaluate at x; exact for Fraction/int x, complex otherwise."""
        if isinstance(x, float):
            x = complex(x)
        total = None
        for e, v in self._coeffs.items():
            term = v * x**e if e else v * (x**0)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0j
        return total

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
        return f"CPolynomial({dict(sorted(self._coeffs.items()))!r})"


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


def sigma_zc_exact(z: int, n: int) -> CPolynomial:
    """The divisor polynomial: sum over d | n of d^z * c^d."""
    if not isinstance(z, int) or z < 0:
        raise ValueError("z must be a nonnegative integer")
    return CPolynomial({d: d**z for d in divisors(n)})


def complex_power(j: int, z: complex) -> complex:
    """j^z = exp(z * ln j) for a positive integer j, principal logarithm."""
    if j < 1:
        raise ValueError("j must be a positive integer")
    if j == 1:
        return 1 + 0j
    return cmath.exp(complex(z) * math.log(j))


def fractional_weight(pairs, z: complex, c: complex) -> tuple[complex, float]:
    """sum_e a(e) * e^z * c^e over (e, a(e)) pairs in complex doubles, and
    the sum of the term magnitudes, whose ratio to the value is the
    condition estimate.

    This is the weight operator sending c^e to e^z * c^e, evaluated at c; a
    weight profile and CPolynomial.items() are both such pairs.  At e = 0
    it is the identity for z = 0 and annihilates the term otherwise,
    matching (c * d/dc)^k for integer k.
    """
    c = complex(c)
    total = 0j
    magnitude = 0.0
    for e, a in pairs:
        term = a * (complex_power(e, z) if e else complex(z == 0)) * c**e
        total += term
        magnitude += abs(term)
    return total, magnitude


def bell_polynomial(m: int, u: Sequence, cap: int = BELL_DEGREE_CAP):
    """Complete Bell polynomial Y_m(u_1, ..., u_m) by the binomial recurrence.

        Y_0 = 1,   Y_{m+1} = sum_{k=0..m} C(m, k) * Y_{m-k} * u_{k+1}

    u may hold elements of any commutative ring that supports + and * with
    integers (rationals, CPolynomial, truncated series, symbolic terms).
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m > cap:
        raise ValueError(f"m={m} exceeds the Bell degree cap {cap}")
    if m == 0:
        return 1
    if len(u) < m:
        raise ValueError(f"need {m} arguments, got {len(u)}")
    ys: list = [1]
    for i in range(m):
        acc = None
        for k in range(i + 1):
            term = comb(i, k) * ys[i - k] * u[k]
            acc = term if acc is None else acc + term
        ys.append(acc)
    return ys[m]


def bell_polynomial_direct(m: int, u: Sequence, cap: int = BELL_DEGREE_CAP):
    """Y_m evaluated straight from its sum over partitions of m.

    Independent of the recurrence route: for each multiset of parts with
    k_1 + 2 k_2 + ... + m k_m = m the contribution is

        m! / (k_1! ... k_m!) * prod_i (u_i / i!)^{k_i}

    whose scalar factor is always an integer.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m > cap:
        raise ValueError(f"m={m} exceeds the Bell degree cap {cap}")
    if m == 0:
        return 1
    if len(u) < m:
        raise ValueError(f"need {m} arguments, got {len(u)}")
    acc = None
    for p in enumerate_partitions(m):
        mult = [0] * (m + 1)
        for a in p.parts:
            mult[a] += 1
        denom = 1
        for i in range(1, m + 1):
            if mult[i]:
                denom *= factorial(mult[i]) * factorial(i) ** mult[i]
        coeff = factorial(m) // denom
        term = None
        for i in range(1, m + 1):
            for _ in range(mult[i]):
                term = u[i - 1] if term is None else term * u[i - 1]
        term = coeff * term
        acc = term if acc is None else acc + term
    return acc

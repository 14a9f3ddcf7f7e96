"""Divisor sums, exact polynomials in c, complex powers, Bell polynomials.

The exact mode of every identity check lives in the ring Q[c], whose one
stored form is a row over a den: the row is the tuple of the ints of c^0 ..
c^d with a nonzero top entry, the zero row being (), and the den is a
positive int coprime to the row's entries, so equality is equality of the
pair.  CPolynomial is that ring's value type.  _plus and _times are the row
arithmetic, which CPolynomial shares with the q-series kernels: there a
stored value is an int or a row, two ints give an int, and an int meets a
row as the constant row.  Fraction is the boundary: coefficient, items and
exact evaluation return Fraction, and str prints every coefficient as a
Fraction would.  Numeric mode works in complex doubles with j^z defined
through the principal real logarithm of the positive integer j.  _once,
the one memo of series and identities, keeps what it builds in a store
that lives exactly as long as a run of identities._run_checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from math import comb, gcd, isqrt, lcm
from operator import add
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Stored = Union[int, tuple]  # a value in Q[c]'s row arithmetic: an int, or a row in c

# the largest Bell degree built, and so the bound of --m-max and of pie series --m
BELL_DEGREE_CAP = 10


def _ratio(value: object) -> tuple[int, int]:
    """An exact scalar as (numerator, denominator) in lowest terms, the
    denominator positive; a float is a TypeError."""
    if type(value) is int:
        return value, 1
    if isinstance(value, float):
        raise TypeError("exact coefficients only; got a float")
    f = value if isinstance(value, Fraction) else Fraction(value)  # type: ignore[arg-type]
    return f.numerator, f.denominator


def _row(v: Stored) -> tuple:
    return v if type(v) is tuple else (v,) if v else ()


def _plus(x: Stored, y: Stored) -> Stored:
    """x + y for stored values, a row when either is one."""
    if type(x) is int and type(y) is int:
        return x + y
    x, y = _row(x), _row(y)
    if len(x) < len(y):
        x, y = y, x
    out = [*map(add, x, y), *x[len(y) :]]
    while out and not out[-1]:  # only rows of one length can cancel
        out.pop()
    return tuple(out)


def _times(x: Stored, y: Stored) -> Stored:
    """x * y for stored values, a row when either is one: a monomial w c^a
    shifts the other row by a and multiplies it by w."""
    if type(x) is int:
        x, y = y, x
    if type(y) is int:
        if type(x) is int:
            return x * y
        return x if y == 1 else tuple(map(y.__mul__, x)) if y else ()
    if not x or not y:
        return ()
    for x, y in ((x, y), (y, x)):
        if not any(x[:-1]):
            return (0,) * (len(x) - 1) + _times(y, x[-1])
    # x split into its monomials
    return reduce(_plus, (_times((0,) * a + (w,), y) for a, w in enumerate(x) if w))


# -- packed ints --------------------------------------------------------------
#
# Ints v_0 .. v_{n-1} pack into sum_k v_k 2^(Wk), in slots of W = 8 * size
# bits, for |v_k| < 2^(W-1); the bias holds 2^(W-1) in every slot.  Both
# directions go through bytes, in time linear in n * W.  Plus the bias, slot
# k holds v_k + 2^(W-1), in 0 .. 2^W - 1, so no slot borrows from the next:
# that sum is the signed slots side by side with their top bits flipped,
# and it reads back slot by slot as unsigned ints.


def _bias(size: int, count: int) -> int:
    """2^(8 * size - 1), the top bit, in each of count slots of size bytes."""
    return int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * count, "little")


def _pack(nums: Sequence[int], size: int, bias: int) -> int:
    """sum_k nums[k] * 2^(8 * size * k); bias is _bias(size, len(nums))."""
    raw = b"".join([v.to_bytes(size, "little", signed=True) for v in nums])
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(packed: int, count: int, size: int, bias: int) -> list[int]:
    """Slots 0 .. count - 1 of a packed int, bias being _bias(size, count);
    the slots above them carry only upward and are dropped."""
    n, half = size * count, 1 << 8 * size - 1
    raw = ((packed + bias) & (1 << 8 * n) - 1).to_bytes(n, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, n, size)]


def _sum_text(coeffs: Iterable, x: str) -> str:
    """'a + b*x + d*x^2 ...' from the coefficients of x^0, x^1, ..., each
    printed as its format and zeros skipped, and "0" when all are zero: a
    coefficient equal to 1 or -1 prints as the bare power of x or its
    negative, and '+ -' as '- '."""
    pieces = []
    for e, a in enumerate(coeffs):
        if not a:
            continue
        var = x if e == 1 else f"{x}^{e}"
        if not e:
            pieces.append(f"{a}")
        elif a == 1:
            pieces.append(var)
        elif a == -1:
            pieces.append(f"-{var}")
        else:
            pieces.append(f"{a}*{var}")
    return " + ".join(pieces).replace("+ -", "- ") if pieces else "0"


class CPolynomial:
    """A polynomial in one indeterminate c with exact rational coefficients.

    Stored as the module docstring's row _num over the den _den.
    coefficient, items and evaluate at an exact point give Fraction; str and
    repr print every coefficient as a Fraction would.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: object = 0):
        if isinstance(coeffs, CPolynomial):
            self._num, self._den = coeffs._num, coeffs._den
            return
        data = coeffs if isinstance(coeffs, dict) else {0: coeffs}
        for e in data:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be nonnegative ints: {e}")
        num, den = [0] * (max(data, default=-1) + 1), 1
        if set(map(type, data.values())) <= {int}:  # as the identities' profiles are
            for e, v in data.items():
                num[e] = v
        else:
            ratios = [(e, *_ratio(v)) for e, v in data.items()]
            den = lcm(*(r for _e, _p, r in ratios))
            for e, p, r in ratios:
                num[e] = p * (den // r)
        while num and not num[-1]:
            num.pop()
        self._num, self._den = tuple(num), den

    @classmethod
    def _of(cls, num: tuple, den: int) -> "CPolynomial":
        """num / den for a row num and a positive int den, in lowest terms."""
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple(v // g for v in num), den // g
        out = cls.__new__(cls)
        out._num, out._den = num, den
        return out

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def coefficient(self, exponent: int) -> Fraction:
        v = self._num[exponent] if 0 <= exponent < len(self._num) else 0
        return Fraction(v, self._den)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((e, Fraction(v, self._den)) for e, v in enumerate(self._num) if v)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other: object) -> "CPolynomial":
        if isinstance(other, (int, Fraction)):
            other = CPolynomial(other)
        if not isinstance(other, CPolynomial):
            return NotImplemented
        num = _plus(_times(self._num, other._den), _times(other._num, self._den))
        return CPolynomial._of(num, self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "CPolynomial":
        return CPolynomial._of(_times(self._num, -1), self._den)

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
            other = CPolynomial(other)
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return CPolynomial._of(_times(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CPolynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            p, r = _ratio(other)
            return CPolynomial._of(_times(self._num, r if p > 0 else -r), self._den * abs(p))
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
        if not isinstance(other, CPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CPolynomial(other)
        return self._num == other._num and self._den == other._den

    def evaluate(self, x: object):
        """Evaluate at x, summing in ascending powers of c; a Fraction for
        Fraction/int x, complex otherwise."""
        exact = isinstance(x, (int, Fraction))
        if isinstance(x, float):
            x = complex(x)
        return sum((v * x**e for e, v in self.items()), Fraction(0) if exact else 0j)

    __call__ = evaluate

    def __str__(self) -> str:
        num, den = self._num, self._den
        return _sum_text(num if den == 1 else [Fraction(v, den) for v in num], "c")

    def __repr__(self) -> str:
        return f"CPolynomial({dict(self.items())!r})"


# the indeterminate
C = CPolynomial({1: 1})


# what _once built in the run in progress; None outside a run
_run_store: dict | None = None


def _once(build, *args):
    """build(*args), once per run and anew outside one, keyed by (build,
    *args), or by build and the args' reprs where one is a float or complex
    (0j == -0j while their powers differ).  Callers pass build as the module
    global read at call time, so a wrapper installed later runs."""
    if _run_store is None:
        return build(*args)
    signed = not {float, complex}.isdisjoint(map(type, args))
    key = (build, *map(repr, args)) if signed else (build, *args)
    if key not in _run_store:
        _run_store[key] = build(*args)
    return _run_store[key]


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
    _sum_weighed, the one weighed sum, adds (a(e) * e^z) * c^e in the
    pairs' order; a check reads both sides' values from it.  e^z comes
    from complex_power and c^e from complex(c)**e, so every term, and so
    every sum, is bit-identical however the tables are shared.
    """
    pairs = tuple(pairs)
    top = max((e for e, _a in pairs), default=0)
    return _sum_weighed(_weigh(pairs, _z_powers(z, top)), _c_powers(c, top))


def bell_polynomial(m: int, u: Sequence):
    """Complete Bell polynomial Y_m(u_1, ..., u_m) by the binomial recurrence.

        Y_0 = 1,   Y_{m+1} = sum_{k=0..m} C(m, k) * Y_{m-k} * u_{k+1}

    u may hold elements of any commutative ring that supports + and * with
    integers (rationals, CPolynomial, truncated series, symbolic terms).
    """
    return _bell_polynomials(m, u)[m]


def _bell_polynomials(m: int, u: Sequence) -> list:
    """[Y_0, ..., Y_m] from one pass of bell_polynomial's recurrence."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m > BELL_DEGREE_CAP:
        raise ValueError(f"m={m} exceeds the Bell degree cap {BELL_DEGREE_CAP}")
    if len(u) < m:
        raise ValueError(f"need {m} arguments, got {len(u)}")
    ys: list = [1]
    for i in range(m):
        ys.append(reduce(add, (comb(i, k) * ys[i - k] * u[k] for k in range(i + 1))))
    return ys

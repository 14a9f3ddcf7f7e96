"""Truncated formal power series in q over exact coefficients in Q[c].

A TruncatedSeries tracks the coefficients of q^0 .. q^Q exactly.  No
floating point ever enters this module.

Every series has one stored form: numerators graded by an integer r >= 1
over one integer den, the q^n coefficient being nums[n] / (den * r**n).  A
numerator is a Python int, or where c is symbolic a row, the form exact.py
stores Q[c] in: the tuple of the ints of c^0 .. c^d with a nonzero top
entry, the zero row being ().  A series holds all ints or all rows, and
exact.py's _plus and _times, CPolynomial's own row arithmetic, add and
multiply them.  Built at c = p/r, a series takes grade r, so c q^k
multiplies numerators by p * r**(k-1), a unit factor (1 - q^k) weighs
r**k, and a product of two series of one grade convolves their numerators.
Int numerators convolve by Kronecker substitution: each series packs into
one int with a slot per power of q (exact.py's _pack), the two ints
multiply once, and the slots of q^0 .. q^Q read back (_unpack).  A
symbolic c is a CPolynomial, stored as a row p over its den r, so its
weights are rows: c^a * w shifts a row by a and multiplies it by the int w,
and a product of symbolic series is a bivariate product of rows.
Only scaling by a non-integer rational (the 1/m! of an exponential
generating function) or a polynomial with rational coefficients changes
den, and operands of other grades or dens are brought to their lcm.
Fraction and CPolynomial are the read-out types: coeffs, indexing, str and
coefficient_rows give a c-free coefficient as a Fraction, and any other as
the CPolynomial of its row over den * r**n.

Named builders at the bottom assemble the generating functions the identity
suite compares.  They build every product and quotient of factors
(1 - x q^k) one factor at a time on stored numerators, each through the one
shifted-add kernel _add_shifted, and never invert a whole series.  Builders
documented as double constructions still compute the same series two
independent ways and raise AlgorithmFault if the results differ.

entry4's left side at a symbolic c = p/r, p a row, mixes the powers of c in
its running 1/(cq)_n, so it is not built on rows.  The int sum runs once at
c = p(2^W)/r, over the grade r itself (a reduced fraction could change the
grade), and each q^j numerator unpacks into its row in slots of W bits.  W
comes from a majorant: the same sum at |p|_1 / r, |p|_1 the sum of the
|entries| of p, with every term made positive.  The l1 norm of rows is
subadditive and submultiplicative, so the q^j numerator of that sum bounds
the sum of the |entries| of row j, and slots of bits(largest bound) + 2 bits
decode every row exactly.  Construction (c) of the k-fold divisor sums reads
one cached Lambert level per k, each built from the level below it.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, compress, repeat, zip_longest
from math import comb, lcm
from operator import add, mul, or_, sub
from typing import Callable, Iterable, Sequence, Union

from .errors import AlgorithmFault
from .exact import CPolynomial, Stored, _plus, _ratio, _row, _sum_text, _times, divisors
from .exact import _bias, _pack, _unpack

Coefficient = Union[Fraction, CPolynomial]
ScalarLike = Union[int, Fraction, CPolynomial]


def _split(c: ScalarLike) -> tuple:
    """c as (p, r) with c = p/r and r >= 1, p an int or, for a CPolynomial,
    its stored row over its den r: series built at c take grade r, where
    c q^k weighs p * r**(k-1).  A float is a TypeError."""
    return (c._num, c._den) if isinstance(c, CPolynomial) else _ratio(c)


def _ops(*values: Stored) -> tuple:
    """(plus, times) for stored values: add and mul, or _plus and _times once any is a row."""
    return (_plus, _times) if tuple in map(type, values) else (add, mul)


def _aligned(nums: Iterable[Stored]) -> tuple:
    """Stored numerators as a tuple, all rows once any is a row."""
    nums = tuple(nums)
    return tuple(map(_row, nums)) if tuple in map(type, nums) else nums


def _coefficient(num: Stored, d: int) -> Coefficient:
    """The coefficient num / d of a stored numerator over the integer d, a
    Fraction when it is free of c."""
    if type(num) is tuple:
        if len(num) > 1:
            return CPolynomial._of(num, d)
        num = num[0] if num else 0
    return Fraction(num, d)


class TruncatedSeries:
    """Power series in q known exactly through order Q, immutable.

    order, nums, grade and den are the one stored form the module docstring
    describes; coeffs gives the coefficients themselves.  The constructor
    takes coefficients that are ints, Fractions or CPolynomials, and clears
    every denominator, a CPolynomial's included, into den.
    """

    __slots__ = ("order", "nums", "grade", "den")

    def __init__(self, order: int, coeffs: Sequence[object]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        parts = [_split(v) for v in coeffs]
        self.order, self.grade, self.den = order, 1, lcm(*(r for _p, r in parts))
        self.nums = _aligned(_times(p, self.den // r) for p, r in parts)

    @classmethod
    def _stored(cls, order: int, nums: Iterable[Stored], grade=1, den=1):
        """A series from stored numerators, all rows once any is a row."""
        out = cls.__new__(cls)
        out.order, out.nums, out.grade, out.den = order, _aligned(nums), grade, den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls._stored(order, [0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls._stored(order, [1] + [0] * order)

    @property
    def coeffs(self) -> tuple:
        """The coefficients of q^0 .. q^Q, each a Fraction or a CPolynomial."""
        return tuple(_coefficient(v, self.den * self.grade**e) for e, v in enumerate(self.nums))

    # -- stored-form plumbing ----------------------------------------------

    def _match(self, other: "TruncatedSeries") -> int:
        """The lcm of the grades of two series of one order."""
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")
        return lcm(self.grade, other.grade)

    def _numerators(self, grade: int, den: int) -> Sequence:
        """The stored numerators at a multiple of this grade and den."""
        step, w = grade // self.grade, den // self.den
        if step == 1 and w == 1:
            return self.nums
        weights = repeat(w) if step == 1 else (w * step**e for e in range(self.order + 1))
        return list(map(_ops(self.nums[0])[1], self.nums, weights))

    def _termwise(self, other: object, op) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        grade, den = self._match(other), lcm(self.den, other.den)
        xs, ys = self._numerators(grade, den), other._numerators(grade, den)
        if tuple in (type(xs[0]), type(ys[0])):
            op, ys = _plus, ys if op is add else map(_times, ys, repeat(-1))
        return TruncatedSeries._stored(self.order, map(op, xs, ys), grade, den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._termwise(other, add)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._termwise(other, sub)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def __mul__(self, other: object) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, (int, Fraction, CPolynomial)):
                return self.scale(other)
            return NotImplemented
        grade, count = self._match(other), self.order + 1
        xs, ys = self._numerators(grade, self.den), other._numerators(grade, other.den)
        if tuple in (type(xs[0]), type(ys[0])):
            # rows make it a bivariate product
            out = [reduce(_plus, map(_times, xs[: e + 1], ys[e::-1])) for e in range(count)]
        else:
            # ints multiply once, packed into slots that hold every z_e, e <= Q
            size = _slot_size(xs, ys)
            bias = _bias(size, count)
            out = _unpack(_pack(xs, size, bias) * _pack(ys, size, bias), count, size, bias)
        return TruncatedSeries._stored(self.order, out, grade, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, scalar: ScalarLike) -> "TruncatedSeries":
        p, r = _split(scalar)
        if not p:
            return TruncatedSeries.zero(self.order)
        nums = map(_ops(p, self.nums[0])[1], self.nums, repeat(p))
        return TruncatedSeries._stored(self.order, nums, self.grade, self.den * r)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0); coefficients past the order fall off."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        n, times = self.order, _ops(self.nums[0])[1]
        kept = list(map(times, self.nums[: max(n + 1 - k, 0)], repeat(self.grade**k)))
        return TruncatedSeries._stored(n, [0] * (n + 1 - len(kept)) + kept, self.grade, self.den)

    def truncate(self, new_order: int) -> "TruncatedSeries":
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries._stored(
            new_order, self.nums[: new_order + 1], self.grade, self.den
        )

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        f = self.coeffs
        # a CPolynomial coefficient has degree > 0: no unit of Q[c]
        if isinstance(f[0], CPolynomial) or not f[0]:
            raise ValueError("constant term is not invertible")
        out = [1 / f[0]]
        for m in range(1, self.order + 1):
            terms = (f[k] * out[m - k] for k in range(1, m + 1) if f[k])
            out.append(-out[0] * sum(terms, Fraction(0)))
        return TruncatedSeries(self.order, out)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Uses the derivative recurrence  n*E_n = sum_{k=1..n} k f_k E_{n-k},
        so only scalar divisions by n occur and everything stays exact.
        """
        f = self.coeffs
        if f[0]:
            raise ValueError("exp needs a zero constant term")
        out = [Fraction(1)]
        for m in range(1, self.order + 1):
            terms = (Fraction(k, m) * f[k] * out[m - k] for k in range(1, m + 1) if f[k])
            out.append(sum(terms, Fraction(0)))
        return TruncatedSeries(self.order, out)

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term one.

        L_n = f_n - (1/n) sum_{k=1..n-1} k L_k f_{n-k}, from f = exp(L).
        """
        f = self.coeffs
        if not f[0] == 1:
            raise ValueError("log needs constant term one")
        out = [Fraction(0)]
        for m in range(1, self.order + 1):
            terms = (Fraction(k, m) * out[k] * f[m - k] for k in range(1, m) if out[k])
            out.append(f[m] - sum(terms, Fraction(0)))
        return TruncatedSeries(self.order, out)

    # -- access / comparison ----------------------------------------------

    def __getitem__(self, power: int) -> Coefficient:
        if not 0 <= power <= self.order:
            raise IndexError(f"power {power} outside tracked range 0..{self.order}")
        return _coefficient(self.nums[power], self.den * self.grade**power)

    def first_difference(self, other: "TruncatedSeries") -> int | None:
        """The lowest power of q where two series of one order differ, or None."""
        return next((e for e, v in enumerate((self - other).nums) if v), None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.first_difference(other) is None

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        coeffs = (f"({v})" if isinstance(v, CPolynomial) else v for v in self.coeffs)
        return f"{_sum_text(coeffs, 'q')} + O(q^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, {self})"


def _slot_size(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Bytes per slot that hold both int sequences of length Q + 1 and every
    z_e, e <= Q, of their product.

    |z_e| <= sum_k |x_k| |y_(e-k)| < (Q + 1) * 2^M for M the largest
    bits(x_k) + max_(j <= Q-k) bits(y_j), the maxima being bit lengths of
    prefix ors, so a signed slot takes M + bits(Q + 1) + 1 bits.  At grade r
    numerators grow like r^k, and M stays near Q log2(r), half of
    bits(max|x|) + bits(max|y|).
    """
    top = map(int.bit_length, accumulate(map(abs, ys), or_))
    bits = max(map(add, map(int.bit_length, reversed(xs)), top))
    return (bits + len(xs).bit_length() + 8) // 8


def coefficient_rows(series: TruncatedSeries) -> list[tuple[int, str]]:
    """Nonzero coefficients as (power, coefficient-string) rows for CSV dumps."""
    return [(e, str(v)) for e, v in enumerate(series.coeffs) if v]


# -- the shifted-add kernel -------------------------------------------------
#
# One kernel, _add_shifted, updates a list of stored numerators in place at
# O(Q) per call; the list's length fixes the truncation order.  A factor
# (1 - x q^k) adds -w q^k times a snapshot of the list, and its inverse adds
# w q^k times the list itself, read ascending, so each term reads entries
# already divided.  A weight w is the stored weight of x q^k at the list's
# grade r, that is x * r**k: p r^(k-1) for x = p/r, r^k for x = 1.
# _over_factor needs k >= 1.  A row weight or row head takes the row
# helpers, ints the inline loop, so an int weight walks a list only while
# its head is a row or it holds no row.


def _times_factor(coeffs: list, w: Stored, k: int) -> list:
    """Multiply by (1 - x q^k) of stored weight w."""
    return _add_shifted(coeffs, coeffs[: max(len(coeffs) - k, 0)], k, _times(w, -1))


def _over_factor(coeffs: list, w: Stored, k: int) -> list:
    """Divide by (1 - x q^k) of stored weight w."""
    return _add_shifted(coeffs, coeffs, k, w)


def _add_shifted(acc: list, coeffs: Sequence, shift: int, weight: Stored) -> list:
    """Add weight * q^shift * coeffs, truncated at the order of acc; at a
    grade r, weight is the stored weight x * r**shift of x q^shift.  coeffs
    may be acc itself, read as the loop updates it."""
    span = range(min(len(coeffs), len(acc) - shift))
    if not span:
        return acc
    if tuple in (type(weight), type(acc[0]), type(coeffs[0])):
        for i in span:
            if coeffs[i]:
                acc[shift + i] = _plus(acc[shift + i], _times(weight, coeffs[i]))
    else:
        for i in span:
            if coeffs[i]:
                acc[shift + i] += weight * coeffs[i]
    return acc


# -- sums over the tails of (q)_inf -----------------------------------------


@lru_cache(maxsize=8)
def _unit_tails(order: int, grade: int) -> tuple[tuple[int, ...], ...]:
    # tails[n] = prod_{k >= n+1} (1 - q^k) stored at the grade, built
    # descending so each tail costs one factor
    tails = [(1,) + (0,) * order]
    for k in range(order, 0, -1):
        tails.append(tuple(_times_factor(list(tails[-1]), grade**k, k)))
    return tuple(reversed(tails))


def _tail_sum(weights: Sequence, order: int, grade: int) -> TruncatedSeries:
    """sum_n w_n q^n (q^{n+1})_inf, truncated at the order, from the stored
    weights weights[n] = w_n * grade**n of w_n q^n: row weights fill one int
    sum per power of c, and its q^N coefficients make the row at q^N."""
    tails = _unit_tails(order, grade)
    rows = tuple in map(type, weights)
    sums = []
    for column in zip_longest(*map(_row, weights), fillvalue=0) if rows else [weights]:
        acc = [0] * (order + 1)
        for n, w in enumerate(column):
            if w:
                _add_shifted(acc, tails[n], n, w)
        sums.append(acc)
    ends = range(1, len(sums) + 1)  # a row is cut once, after its last nonzero entry
    nums = [row[: max(compress(ends, row), default=0)] for row in zip(*sums)] if rows else sums[0]
    return TruncatedSeries._stored(order, nums or [0] * (order + 1), grade)


def _scalar_powers(c: Stored, order: int) -> list:
    return list(accumulate(repeat(c, order), _ops(c)[1], initial=1))


def _alternating_sum(
    p: int, r: int, fold: int, shift: Callable, weight: Callable, order: int
) -> list[int]:
    """The numerators at grade r of sum_{n>=1} (-1)^(n-1) w_n q^shift(n) /
    ((1-q^n)^fold (xq)_n) for x = p/r, from the int stored weights weight(n)
    = w_n * r**n of w_n q^n; shift(n) >= n.  p/r need not be in lowest
    terms: the grade is r.

    A running 1/(xq)_n takes one factor per n and is cut to the degrees that
    shift(n), increasing in n, leaves inside the order.
    """
    acc = [0] * (order + 1)
    inv = [1] + [0] * order
    n = 1
    while shift(n) <= order:
        del inv[order - shift(n) + 1 :]
        body = list(_over_factor(inv, p * r ** (n - 1), n))
        for _ in range(fold):
            _over_factor(body, r**n, n)
        sign = (-1) ** (n - 1) * r ** (shift(n) - n)
        _add_shifted(acc, body, shift(n), weight(n) * sign)
        n += 1
    return acc


def _triangular(n: int) -> int:
    return n * (n + 1) // 2


def _entry4_numerators(p: Stored, r: int, order: int) -> list:
    """entry4's left side at c = p/r, as numerators at grade r: ints for an
    int p, rows for a row p, read from the int sum at c = p(2^W)/r."""
    if type(p) is int:
        ppow = _scalar_powers(p, order)
        return _alternating_sum(p, r, 1, _triangular, ppow.__getitem__, order)
    # the majorant: at |p|_1 / r with every term positive, each numerator
    # bounds the sum of |entries| of its row
    norm = sum(map(abs, p))
    npow = _scalar_powers(norm, order)
    bound = _alternating_sum(norm, r, 1, _triangular, lambda n: (-1) ** (n - 1) * npow[n], order)
    size = (max(norm, *bound).bit_length() + 9) // 8  # 2 bits to spare, in bytes
    packed = _entry4_numerators(_pack(p, size, _bias(size, len(p))), r, order)
    return [_row_of(v, size) for v in packed]


def _row_of(packed: int, size: int) -> tuple:
    """The row of ints a packed int holds in slots of size bytes, cut after
    its last nonzero entry.  A top nonzero slot k - 1 whose entries lie below
    a quarter of the slot puts bits(packed) >= 8 * size * (k - 1), so the
    slots read cover it."""
    count = abs(packed).bit_length() // (8 * size) + 1
    row = _unpack(packed, count, size, _bias(size, count))
    while row and not row[-1]:
        row.pop()
    return tuple(row)


# -- named series -----------------------------------------------------------
#
# A builder at c = p/r works on numerators stored at grade r: c^n q^n
# weighs p^n there, and d^(m-1) c^d q^n weighs d^(m-1) p^d r^(n-d).


def series_A_quotient(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf via the product quotient."""
    p, r = _split(c)
    nums = [1] + [0] * order
    for k in range(1, order + 1):
        _times_factor(nums, r**k, k)
    for k in range(1, order + 1):
        _over_factor(nums, _times(p, r ** (k - 1)), k)
    return TruncatedSeries._stored(order, nums, r)


def series_A_euler(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf via the Euler expansion sum_n c^n q^n (q^{n+1})_inf."""
    p, r = _split(c)
    return _tail_sum(_scalar_powers(p, order), order, r)


def series_A(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf, double-constructed (quotient vs Euler sum)."""
    quo = series_A_quotient(c, order)
    eul = series_A_euler(c, order)
    if quo != eul:
        raise AlgorithmFault(f"series_A double construction disagrees at order {order} for c={c}")
    return quo


def series_M(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """sum_{n>=1} n^m c^n q^n (q^{n+1})_inf, truncated.

    The q^N coefficient is the signed distinct-partition weight sum
    sum_{pi in D(N)} (-1)^(#-1) s^m c^s; that bridge is checked by the
    identity suite, not here.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    p, r = _split(c)
    ppow = _scalar_powers(p, order)
    weights = [0] + [_times(ppow[n], n**m) for n in range(1, order + 1)]
    return _tail_sum(weights, order, r)


@lru_cache(maxsize=512)
def _divisors(n: int) -> tuple[int, ...]:
    # series_K_divisor reads every n <= Q once per (m, c): trial division
    # once per n, for every n up to the largest order the CLI accepts (300)
    return tuple(divisors(n))


def series_K_divisor(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """K_{m,c} = sum_n sigma_{m-1,c}(n) q^n from explicit divisor sums."""
    if m < 1:
        raise ValueError("m must be positive")
    p, r = _split(c)
    ppow, rpow = _scalar_powers(p, order), _scalar_powers(r, order)
    plus, times = _ops(p)
    vals = [0] * (order + 1)
    for n in range(1, order + 1):
        for d in _divisors(n):
            vals[n] = plus(vals[n], times(ppow[d], d ** (m - 1) * rpow[n - d]))
    return TruncatedSeries._stored(order, vals, r)


def series_K_lambert(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """K_{m,c} as the Lambert sum over j of c^j j^(m-1) q^j/(1-q^j)."""
    if m < 1:
        raise ValueError("m must be positive")
    p, r = _split(c)
    ppow, rpow = _scalar_powers(p, order), _scalar_powers(r, order)
    plus, times = _ops(p)
    vals = [0] * (order + 1)
    for j in range(1, order + 1):
        weight = times(ppow[j], j ** (m - 1))
        if weight:
            for e in range(j, order + 1, j):
                vals[e] = plus(vals[e], times(weight, rpow[e - j]))
    return TruncatedSeries._stored(order, vals, r)


def series_K(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """Divisor-power generating function, double-constructed."""
    div = series_K_divisor(m, c, order)
    lam = series_K_lambert(m, c, order)
    if div != lam:
        raise AlgorithmFault(f"series_K double construction disagrees for m={m}, c={c}")
    return div


def series_entry4(c: ScalarLike, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the alternating triangular-number sum identity:

        sum_n (-1)^(n-1) c^n q^(n(n+1)/2) / ((1-q^n)(cq)_n)
            =  sum_n c^n q^n / (1-q^n)

    Returned as (lhs, rhs); their equality is an identity check, and the
    c = 1 coefficients are the divisor counts d(n).
    """
    p, r = _split(c)
    lhs = TruncatedSeries._stored(order, _entry4_numerators(p, r, order), r)
    return lhs, series_K_lambert(1, c, order)


def series_dilcher_binomial(
    k: int, order: int
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Three constructions of the k-fold divisor-sum generating function:

      (a) sum_{n>=k} C(n,k) q^n (q^{n+1})_inf
      (b) q^(-C(k,2)) * sum_{n>=1} (-1)^(n-1) q^(C(n+k,2)) / ((1-q^n)^k (q)_n)
      (c) the k-fold nested Lambert sum over j_1 >= j_2 >= ... >= j_k

    (b) is assembled at internal order Q + C(k,2); the down-shift must land on
    zero low-order coefficients or the transcription is wrong, which raises
    AlgorithmFault instead of silently truncating.
    """
    if not 1 <= k <= 6:
        raise ValueError("k must be between 1 and 6")
    if order < k:
        raise ValueError("order must be at least k")

    a = _tail_sum([comb(n, k) for n in range(order + 1)], order, 1)

    offset = comb(k, 2)
    b_raw = _alternating_sum(1, 1, k, lambda n: comb(n + k, 2), lambda n: 1, order + offset)
    if any(b_raw[:offset]):
        raise AlgorithmFault(
            f"k-fold alternating sum has support below q^{offset} (k={k})"
        )
    b = TruncatedSeries._stored(order, b_raw[offset:])
    return a, b, TruncatedSeries._stored(order, _lambert_level(k, order)[1])


@lru_cache(maxsize=1)
def _lambert_level(k: int, order: int) -> tuple[tuple[Sequence[int], ...], tuple[int, ...]]:
    """Level k of construction (c) as (heads, top).  Entry j of a level sums
    the chains j >= j_1 >= ... >= j_k >= 1: the prefix sums over j of
    q^j/(1-q^j) times entry j of level k - 1, level 0 being the series one.
    heads[j] is entry j through q^(order - j), all of it that level k + 1
    reads, and top is entry order whole.  Each level is built from the
    cached one below it, so k = 1 .. k_max in turn build k_max levels, and
    only the last level stays alive."""
    if not k:
        heads = tuple(_compact([1] + [0] * (order - j)) for j in range(order + 1))
        return heads, (1,) + (0,) * order
    below, running = _lambert_level(k - 1, order)[0], [0] * (order + 1)
    heads = [_compact(running)]
    for j in range(1, order + 1):
        _add_shifted(running, _over_factor(list(below[j]), 1, j), j, 1)
        heads.append(_compact(running[: order + 1 - j]))
    return tuple(heads), tuple(running)


def _compact(values: list[int]) -> Sequence[int]:
    """values as an array of unsigned 64-bit ints, a fifth of a tuple's
    memory, or as a tuple where one does not fit."""
    try:
        return array("Q", values)
    except OverflowError:
        return tuple(values)


class ExpSeries:
    """A series in t whose coefficients are q-series (ordinary t-powers).

    Exponential generating functions are handled by dividing the factorials
    into the stored coefficients, so coeffs[m] holds (t^m coefficient), i.e.
    the EGF term divided by m!.
    """

    __slots__ = ("t_order", "q_order", "coeffs")

    def __init__(self, coeffs: Sequence[TruncatedSeries]):
        if not coeffs:
            raise ValueError("need at least the t^0 coefficient")
        q_orders = {s.order for s in coeffs}
        if len(q_orders) != 1:
            raise ValueError("all t-coefficients must share one q-order")
        self.t_order = len(coeffs) - 1
        self.q_order = coeffs[0].order
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "ExpSeries") -> "ExpSeries":
        self._check(other)
        return ExpSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "ExpSeries") -> "ExpSeries":
        self._check(other)
        n = self.t_order
        out = [TruncatedSeries.zero(self.q_order)] * (n + 1)
        for i, x in enumerate(self.coeffs):
            for j in range(n - i + 1):
                out[i + j] = out[i + j] + x * other.coeffs[j]
        return ExpSeries(out)

    def exp(self) -> "ExpSeries":
        """exp in t of a series with zero t-constant, coefficientwise exact."""
        if any(self.coeffs[0].nums):
            raise ValueError("exp needs a zero t-constant term")
        out = [TruncatedSeries.one(self.q_order)]
        for m in range(1, self.t_order + 1):
            acc = self.coeffs[m]  # the k = m term, coeffs[m] * out[0] with out[0] = 1
            for k in range(1, m):
                acc = acc + (self.coeffs[k] * out[m - k]).scale(Fraction(k, m))
            out.append(acc)
        return ExpSeries(out)

    def scale_coeffs(self, series: TruncatedSeries) -> "ExpSeries":
        """Multiply every t-coefficient by one fixed q-series."""
        return ExpSeries([s * series for s in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpSeries):
            return NotImplemented
        return (
            self.t_order == other.t_order
            and self.q_order == other.q_order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    __hash__ = None  # type: ignore[assignment]

    def __getitem__(self, m: int) -> TruncatedSeries:
        return self.coeffs[m]

    def _check(self, other: "ExpSeries") -> None:
        if self.t_order != other.t_order or self.q_order != other.q_order:
            raise ValueError("ExpSeries order mismatch")

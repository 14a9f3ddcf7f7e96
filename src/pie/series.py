"""Truncated formal power series in q over exact coefficients in Q[c].

A TruncatedSeries tracks the coefficients of q^0 .. q^Q exactly; no
floating point enters this module.  Its one stored form is numerators
graded by an integer r >= 1 over one integer den, the q^n coefficient being
nums[n] / (den * r**n).  A numerator is an int, or where c is symbolic a
row, exact.py's form of Q[c]: the tuple of the ints of c^0 .. c^d with a
nonzero top entry, the zero row being ().  A series holds all ints or all
rows.  Built at c = p/r, a series takes grade r, so c q^k weighs
p * r**(k-1) and a unit factor (1 - q^k) weighs r**k.  Only scaling by a
non-integer rational (the 1/m! of an exponential generating function)
changes den, and operands of other grades or dens are brought to their lcm.

Ints are the one numerator the kernels and builders compute on.  Int series
multiply by Kronecker substitution: each packs into one int with a slot per
power of q (exact.py's _pack), the two ints multiply once, and the slots of
q^0 .. q^Q read back (_unpack).  Rows are only built, compared and read
out: the one operation on them here is a product with an int, _scaled, so
two symbolic series compare on their stored rows and scale by an int or a
Fraction.  A sum, product, inverse, exp or log of a symbolic series raises
TypeError, as does scaling any series by a CPolynomial.  coeffs, indexing,
str and coefficient_rows read a c-free coefficient out as a Fraction, any
other as the CPolynomial of its row over den * r**n.

The named builders at the bottom build every product and quotient of
factors (1 - x q^k) one factor at a time through the one shifted-add kernel
_add_shifted, and never invert a whole series.  Double constructions build
one series two independent ways and raise AlgorithmFault if they differ.
A run builds the tails of (q)_inf at each order and grade and the divisors
of each n once, through exact._once.

At a symbolic c = p/r, p a row, a builder runs its int path through
_in_rows, which packs c: the path runs once at c = p(2^W)/r, over the grade
r itself (a reduced fraction could change it), and each q^j numerator
unpacks into its row in slots of W bits.  W comes from a majorant, the same
build at |p|_1 / r with every term made positive, |p|_1 the sum of the
|entries| of p: the l1 norm of rows is subadditive and submultiplicative,
so the majorant's q^j numerator bounds row j's, and slots of bits(largest
bound) + 2 bits decode every row.  A's quotient, entry4's left side and
both K builders pack their numerators so; the tail sums (A's Euler sum, M)
pack their weights and add one int column per power of c.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, repeat, zip_longest
from math import comb, lcm
from operator import add, mul, or_, sub
from typing import Callable, Iterable, Sequence, Union

from .errors import AlgorithmFault
from .exact import CPolynomial, Stored, _ratio, _row, _sum_text, divisors
from .exact import _bias, _once, _pack, _unpack

Coefficient = Union[Fraction, CPolynomial]
ScalarLike = Union[int, Fraction, CPolynomial]
K_FOLD_CAP = 6  # the largest k of series_dilcher_binomial's k-fold divisor sums


def _split(c: ScalarLike) -> tuple:
    """c as (p, r) with c = p/r and r >= 1, p an int or, for a CPolynomial,
    its stored row over its den r: series built at c take grade r, where
    c q^k weighs p * r**(k-1).  A float is a TypeError."""
    return (c._num, c._den) if isinstance(c, CPolynomial) else _ratio(c)


def _scaled(nums: Sequence[Stored], weights: Iterable[int]) -> list:
    """Each numerator times its int weight, the numerators all ints or all
    rows: a row times an int is the one row operation of this module."""
    if nums and type(nums[0]) is tuple:
        return [tuple(w * v for v in row) if w else () for row, w in zip(nums, weights)]
    return list(map(mul, nums, weights))


def _ints(*series: "TruncatedSeries") -> None:
    """Raise TypeError if any of the series stores rows: a series in Q[c] is
    built, compared and read out, never combined."""
    if any(type(f.nums[0]) is tuple for f in series):
        raise TypeError("series in Q[c] are not combined, only compared and read out")


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
    takes int and Fraction coefficients and clears their denominators into
    den; a series in Q[c] comes from a builder.
    """

    __slots__ = ("order", "nums", "grade", "den")

    def __init__(self, order: int, coeffs: Sequence[object]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        ps, rs = zip(*map(_ratio, coeffs))
        self.order, self.grade, self.den = order, 1, lcm(*rs)
        self.nums = tuple(p * (self.den // r) for p, r in zip(ps, rs))

    @classmethod
    def _stored(cls, order: int, nums: Iterable[Stored], grade=1, den=1):
        """A series from stored numerators, all ints or all rows."""
        out = cls.__new__(cls)
        out.order, out.nums, out.grade, out.den = order, tuple(nums), grade, den
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
        return _scaled(self.nums, weights)

    def _termwise(self, other: object, op) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _ints(self, other)
        grade, den = self._match(other), lcm(self.den, other.den)
        xs, ys = self._numerators(grade, den), other._numerators(grade, den)
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
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        _ints(self, other)
        grade, count = self._match(other), self.order + 1
        # ints multiply once, packed into slots that hold every z_e, e <= Q
        xs, ys = self._numerators(grade, self.den), other._numerators(grade, other.den)
        size = _slot_size(xs, ys)
        bias = _bias(size, count)
        out = _unpack(_pack(xs, size, bias) * _pack(ys, size, bias), count, size, bias)
        return TruncatedSeries._stored(self.order, out, grade, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, scalar: int | Fraction) -> "TruncatedSeries":
        p, r = _ratio(scalar)
        nums = _scaled(self.nums, repeat(p))
        return TruncatedSeries._stored(self.order, nums, self.grade, self.den * r)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0); coefficients past the order fall off."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        n, zero = self.order, () if type(self.nums[0]) is tuple else 0
        kept = _scaled(self.nums[: max(n + 1 - k, 0)], repeat(self.grade**k))
        nums = [zero] * (n + 1 - len(kept)) + kept
        return TruncatedSeries._stored(n, nums, self.grade, self.den)

    def truncate(self, new_order: int) -> "TruncatedSeries":
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries._stored(
            new_order, self.nums[: new_order + 1], self.grade, self.den
        )

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        _ints(self)
        f = self.coeffs
        if not f[0]:
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
        _ints(self)
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
        _ints(self)
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
        """The lowest power of q where two series of one order differ, or
        None: their numerators compare, at the lcm of their grades and dens."""
        grade, den = self._match(other), lcm(self.den, other.den)
        xs, ys = self._numerators(grade, den), other._numerators(grade, den)
        if type(xs[0]) is not type(ys[0]):
            xs, ys = map(_row, xs), map(_row, ys)
        return next((e for e, (x, y) in enumerate(zip(xs, ys)) if x != y), None)

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
# _over_factor needs k >= 1.  Lists and weights are ints: a symbolic c
# comes packed by _in_rows, or as one int column per power of c.


def _times_factor(coeffs: list, w: int, k: int) -> list:
    """Multiply by (1 - x q^k) of stored weight w."""
    return _add_shifted(coeffs, coeffs[: max(len(coeffs) - k, 0)], k, -w)


def _over_factor(coeffs: list, w: int, k: int) -> list:
    """Divide by (1 - x q^k) of stored weight w."""
    return _add_shifted(coeffs, coeffs, k, w)


def _add_shifted(acc: list, coeffs: Sequence[int], shift: int, weight: int) -> list:
    """Add weight * q^shift * coeffs, truncated at the order of acc; at a
    grade r, weight is the stored weight x * r**shift of x q^shift.  coeffs
    may be acc itself, read as the loop updates it."""
    for i in range(min(len(coeffs), len(acc) - shift)):
        if coeffs[i]:
            acc[shift + i] += weight * coeffs[i]
    return acc


# -- sums over the tails of (q)_inf -----------------------------------------


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
    tails = _once(_unit_tails, order, grade)
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
    return TruncatedSeries._stored(order, nums or [()] * (order + 1), grade)


def _scalar_powers(x: int, order: int) -> list[int]:
    return list(accumulate(repeat(x, order), mul, initial=1))


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


def _in_rows(build: Callable[[int, int], list], p: Stored) -> list:
    """build(p, 1), a builder's int numerators at c = p/r, rows for a row p
    read from build(p(2^W), 1); build(x, -1) has every term positive at x >= 0."""
    if type(p) is int:
        return build(p, 1)
    norm = sum(map(abs, p))
    size = (max(norm, *build(norm, -1)).bit_length() + 9) // 8  # 2 bits to spare, in bytes
    return [_row_of(v, size) for v in build(_pack(p, size, _bias(size, len(p))), 1)]


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

    def build(x: int, sign: int) -> list:
        # sign -1 turns each unit factor (1 - r^k q^k) into (1 + r^k q^k)
        nums = [1] + [0] * order
        for k in range(1, order + 1):
            _times_factor(nums, sign * r**k, k)
        for k in range(1, order + 1):
            _over_factor(nums, x * r ** (k - 1), k)
        return nums

    return TruncatedSeries._stored(order, _in_rows(build, p), r)


def series_A_euler(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf via the Euler expansion sum_n c^n q^n (q^{n+1})_inf."""
    p, r = _split(c)
    return _tail_sum(_in_rows(lambda x, _sign: _scalar_powers(x, order), p), order, r)


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
    build = lambda x, _sign: [n**m * v if n else 0 for n, v in enumerate(_scalar_powers(x, order))]
    return _tail_sum(_in_rows(build, p), order, r)


def series_K_divisor(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """K_{m,c} = sum_n sigma_{m-1,c}(n) q^n from explicit divisor sums."""
    if m < 1:
        raise ValueError("m must be positive")
    p, r = _split(c)
    rpow = _scalar_powers(r, order)
    divs = [(n, _once(divisors, n)) for n in range(1, order + 1)]

    def build(x: int, _sign: int) -> list:
        xpow = _scalar_powers(x, order)
        return [0] + [sum([xpow[d] * d ** (m - 1) * rpow[n - d] for d in ds]) for n, ds in divs]

    return TruncatedSeries._stored(order, _in_rows(build, p), r)


def series_K_lambert(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """K_{m,c} as the Lambert sum over j of c^j j^(m-1) q^j/(1-q^j)."""
    if m < 1:
        raise ValueError("m must be positive")
    p, r = _split(c)
    rpow = _scalar_powers(r, order)

    def build(x: int, _sign: int) -> list:
        vals, xpow = [0] * (order + 1), _scalar_powers(x, order)
        for j in range(1, order + 1):
            weight = xpow[j] * j ** (m - 1)
            for e in range(j, order + 1, j):
                vals[e] += weight * rpow[e - j]
        return vals

    return TruncatedSeries._stored(order, _in_rows(build, p), r)


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

    def build(x: int, sign: int) -> list:
        # sign -1 makes every term positive: sign (sign x)^n = (-1)^(n-1) x^n
        xpow = _scalar_powers(sign * x, order)
        return _alternating_sum(x, r, 1, _triangular, lambda n: sign * xpow[n], order)

    return TruncatedSeries._stored(order, _in_rows(build, p), r), series_K_lambert(1, c, order)


def series_dilcher_binomial(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Two constructions of the k-fold divisor-sum generating function:

      (a) sum_{n>=k} C(n,k) q^n (q^{n+1})_inf
      (b) q^(-C(k,2)) * sum_{n>=1} (-1)^(n-1) q^(C(n+k,2)) / ((1-q^n)^k (q)_n)

    _nested_lambert builds the third, (c), for every k at once.  (b) is
    assembled at internal order Q + C(k,2); the down-shift must land on
    zero low-order coefficients or the transcription is wrong, which raises
    AlgorithmFault instead of silently truncating.
    """
    if not 1 <= k <= K_FOLD_CAP:
        raise ValueError(f"k must be between 1 and {K_FOLD_CAP}")
    if order < k:
        raise ValueError("order must be at least k")

    a = _tail_sum([comb(n, k) for n in range(order + 1)], order, 1)

    offset = comb(k, 2)
    b_raw = _alternating_sum(1, 1, k, lambda n: comb(n + k, 2), lambda n: 1, order + offset)
    if any(b_raw[:offset]):
        raise AlgorithmFault(
            f"k-fold alternating sum has support below q^{offset} (k={k})"
        )
    return a, TruncatedSeries._stored(order, b_raw[offset:])


def _nested_lambert(k_max: int, order: int) -> list[TruncatedSeries]:
    """Construction (c) for k = 1..k_max: the k-fold nested Lambert sum over
    j_1 >= j_2 >= ... >= j_k >= 1 of the products of q^(j_i)/(1-q^(j_i)).

    Entry j of level k sums the chains j >= j_1 >= ... >= j_k >= 1: the
    prefix sums over j of q^j/(1-q^j) times entry j of level k - 1, level 0
    being the series one.  One ascending pass builds level k from level
    k - 1, keeping of entry j only heads[j], its terms through q^(order - j)
    that the next level reads; entry order whole is (c) at k."""
    heads, out = [[1] + [0] * (order - j) for j in range(order + 1)], []
    for _k in range(k_max):
        running, below, heads = [0] * (order + 1), heads, [[]]  # heads[0] is never read
        for j in range(1, order + 1):
            _add_shifted(running, _over_factor(below[j], 1, j), j, 1)
            heads.append(running[: order + 1 - j])
        out.append(TruncatedSeries._stored(order, running))
    return out


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

    def _check(self, other: "ExpSeries") -> None:
        if self.t_order != other.t_order or self.q_order != other.q_order:
            raise ValueError("ExpSeries order mismatch")

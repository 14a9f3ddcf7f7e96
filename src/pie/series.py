"""Truncated formal power series in q over exact coefficient rings.

A TruncatedSeries tracks the coefficients of q^0 .. q^Q exactly, with
coefficients drawn from the rationals or from Q[c] (CPolynomial).  No
floating point ever enters this module.  Named builders at the bottom
assemble the generating functions the identity suite compares.  They build
every product and quotient of factors (1 - x q^k) one factor at a time and
never invert a whole series.  Builders documented as double constructions
still compute the same series two independent ways and raise AlgorithmFault
if the results differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Sequence, Union

from .errors import AlgorithmFault
from .exact import CPolynomial, divisors

Coefficient = Union[Fraction, CPolynomial]
ScalarLike = Union[int, Fraction, CPolynomial]


def _coerce_fraction(value: object) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact coefficients only; got a float")
    if isinstance(value, CPolynomial):
        raise TypeError("CPolynomial coefficient in a rational series")
    return Fraction(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CoefficientRing:
    name: str
    zero: Coefficient
    one: Coefficient
    coerce: Callable[[object], Coefficient]


RATIONAL = CoefficientRing("rational", Fraction(0), Fraction(1), _coerce_fraction)
CPOLY = CoefficientRing("cpoly", CPolynomial(0), CPolynomial(1), CPolynomial.coerce)


def ring_for(scalar: object) -> CoefficientRing:
    return CPOLY if isinstance(scalar, CPolynomial) else RATIONAL


class TruncatedSeries:
    """Power series in q known exactly through order Q, immutable."""

    __slots__ = ("order", "coeffs", "ring")

    def __init__(
        self,
        order: int,
        coeffs: Sequence[Coefficient],
        ring: CoefficientRing = RATIONAL,
    ):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.order = order
        self.coeffs = tuple(coeffs)
        self.ring = ring

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(
        cls,
        order: int,
        coeffs: Iterable[object],
        ring: CoefficientRing = RATIONAL,
    ) -> "TruncatedSeries":
        vals = [ring.coerce(v) for v in coeffs][: order + 1]
        vals += [ring.zero] * (order + 1 - len(vals))
        return cls(order, vals, ring)

    @classmethod
    def zero(cls, order: int, ring: CoefficientRing = RATIONAL) -> "TruncatedSeries":
        return cls(order, [ring.zero] * (order + 1), ring)

    @classmethod
    def one(cls, order: int, ring: CoefficientRing = RATIONAL) -> "TruncatedSeries":
        vals = [ring.zero] * (order + 1)
        vals[0] = ring.one
        return cls(order, vals, ring)

    # -- ring plumbing -----------------------------------------------------

    def _lift(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.order, [CPolynomial(v) for v in self.coeffs], CPOLY
        )

    def _match(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )
        a, b = self, other
        if a.ring is not b.ring:
            if a.ring is RATIONAL:
                a = a._lift()
            elif b.ring is RATIONAL:
                b = b._lift()
            else:
                raise ValueError("incompatible coefficient rings")
        return a, b

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._match(other)
        return TruncatedSeries(
            a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)], a.ring
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._match(other)
        return TruncatedSeries(
            a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)], a.ring
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [-x for x in self.coeffs], self.ring)

    def __mul__(self, other: object) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, (int, Fraction, CPolynomial)):
                return self.scale(other)
            return NotImplemented
        a, b = self._match(other)
        n = a.order
        out: list = [a.ring.zero] * (n + 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j in range(n - i + 1):
                y = b.coeffs[j]
                if y:
                    out[i + j] = out[i + j] + x * y
        return TruncatedSeries(n, out, a.ring)

    def __rmul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction, CPolynomial)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar: ScalarLike) -> "TruncatedSeries":
        ring = self.ring
        if isinstance(scalar, CPolynomial) and ring is RATIONAL:
            return self._lift().scale(scalar)
        s = ring.coerce(scalar)
        if not s:
            return TruncatedSeries.zero(self.order, ring)
        return TruncatedSeries(self.order, [v * s for v in self.coeffs], ring)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0); coefficients past the order fall off."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        n = self.order
        vals = [self.ring.zero] * (n + 1)
        for i in range(0, n + 1 - k):
            vals[i + k] = self.coeffs[i]
        return TruncatedSeries(n, vals, self.ring)

    def truncate(self, new_order: int) -> "TruncatedSeries":
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(new_order, self.coeffs[: new_order + 1], self.ring)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        f0 = self.coeffs[0]
        if isinstance(f0, CPolynomial):
            if f0.degree > 0 or f0.is_zero:
                raise ValueError("constant term is not invertible")
            g0 = CPolynomial(Fraction(1) / f0.coefficient(0))
        else:
            if not f0:
                raise ValueError("constant term is not invertible")
            g0 = Fraction(1) / f0
        n = self.order
        out: list = [self.ring.zero] * (n + 1)
        out[0] = g0
        for m in range(1, n + 1):
            acc = None
            for k in range(1, m + 1):
                fk = self.coeffs[k]
                if not fk:
                    continue
                term = fk * out[m - k]
                acc = term if acc is None else acc + term
            if acc is not None:
                out[m] = -(g0 * acc)
        return TruncatedSeries(n, out, self.ring)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Uses the derivative recurrence  n*E_n = sum_{k=1..n} k f_k E_{n-k},
        so only scalar divisions by n occur and everything stays exact.
        """
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        n = self.order
        out: list = [self.ring.zero] * (n + 1)
        out[0] = self.ring.one
        for m in range(1, n + 1):
            acc = None
            for k in range(1, m + 1):
                fk = self.coeffs[k]
                if not fk:
                    continue
                term = (Fraction(k, m) * fk) * out[m - k]
                acc = term if acc is None else acc + term
            if acc is not None:
                out[m] = acc
        return TruncatedSeries(n, out, self.ring)

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term one.

        L_n = f_n - (1/n) sum_{k=1..n-1} k L_k f_{n-k}, from f = exp(L).
        """
        if not self.coeffs[0] == self.ring.one:
            raise ValueError("log needs constant term one")
        n = self.order
        out: list = [self.ring.zero] * (n + 1)
        for m in range(1, n + 1):
            acc = None
            for k in range(1, m):
                lk = out[k]
                fk = self.coeffs[m - k]
                if not lk or not fk:
                    continue
                term = (Fraction(k, m) * lk) * fk
                acc = term if acc is None else acc + term
            out[m] = self.coeffs[m] - acc if acc is not None else self.coeffs[m]
        return TruncatedSeries(n, out, self.ring)

    # -- access / comparison ----------------------------------------------

    def __getitem__(self, power: int) -> Coefficient:
        if not 0 <= power <= self.order:
            raise IndexError(f"power {power} outside tracked range 0..{self.order}")
        return self.coeffs[power]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        a, b = self._match(other)
        return all(x == y for x, y in zip(a.coeffs, b.coeffs))

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        pieces = []
        for e, v in enumerate(self.coeffs):
            if not v:
                continue
            coeff = f"({v})" if isinstance(v, CPolynomial) else str(v)
            if e == 0:
                pieces.append(coeff)
            else:
                var = "q" if e == 1 else f"q^{e}"
                if coeff == "1":
                    pieces.append(var)
                elif coeff == "-1":
                    pieces.append(f"-{var}")
                else:
                    pieces.append(f"{coeff}*{var}")
        body = " + ".join(pieces).replace("+ -", "- ") if pieces else "0"
        return f"{body} + O(q^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, {self})"


def coefficient_rows(series: TruncatedSeries) -> list[tuple[int, str]]:
    """Nonzero coefficients as (power, coefficient-string) rows for CSV dumps."""
    return [(e, str(v)) for e, v in enumerate(series.coeffs) if v]


# -- factor-at-a-time kernels ----------------------------------------------
#
# Each kernel updates a plain coefficient list in place at O(Q) per factor;
# the list's length fixes the truncation order.  _over_factor needs k >= 1;
# at k = 0 the descending walk of _times_factor scales by 1 - x.


def _times_factor(coeffs: list, x: ScalarLike, k: int) -> list:
    """Multiply by (1 - x q^k), walking descending."""
    for e in range(len(coeffs) - 1, k - 1, -1):
        if coeffs[e - k]:
            coeffs[e] = coeffs[e] - x * coeffs[e - k]
    return coeffs


def _over_factor(coeffs: list, x: ScalarLike, k: int) -> list:
    """Divide by (1 - x q^k), walking ascending."""
    for e in range(k, len(coeffs)):
        if coeffs[e - k]:
            coeffs[e] = coeffs[e] + x * coeffs[e - k]
    return coeffs


def _add_shifted(acc: list, coeffs: Sequence, shift: int, weight: ScalarLike) -> list:
    """Add weight * q^shift * coeffs, truncated at the order of acc."""
    for i in range(min(len(coeffs), len(acc) - shift)):
        if coeffs[i]:
            acc[shift + i] = acc[shift + i] + weight * coeffs[i]
    return acc


# -- q-Pochhammer products --------------------------------------------------


def _product(x: ScalarLike, ks: Iterable[int], order: int) -> TruncatedSeries:
    """prod_{k in ks} (1 - x q^k), truncated at the given order."""
    ring = ring_for(x)
    coeffs = [ring.one] + [ring.zero] * order
    for k in ks:
        _times_factor(coeffs, x, k)
    return TruncatedSeries(order, coeffs, ring)


def pochhammer_finite(x: ScalarLike, n: int, order: int) -> TruncatedSeries:
    """(x q; q)_n = prod_{k=1..n} (1 - x q^k), truncated at the given order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _product(x, range(1, min(n, order) + 1), order)


def pochhammer_infinite(x: ScalarLike, order: int, start: int = 1) -> TruncatedSeries:
    """prod_{k >= start} (1 - x q^k) truncated; factors past the order are 1."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    return _product(x, range(start, order + 1), order)


@lru_cache(maxsize=8)
def _unit_tails(order: int) -> tuple[tuple[int, ...], ...]:
    # tails[n] = prod_{k >= n+1} (1 - q^k) with integer coefficients, built
    # descending so each tail costs one factor
    tails = [(1,) + (0,) * order]
    for k in range(order, 0, -1):
        tails.append(tuple(_times_factor(list(tails[-1]), 1, k)))
    return tuple(reversed(tails))


def _tail_sum(weights: Sequence, order: int, ring: CoefficientRing) -> TruncatedSeries:
    """sum_n weights[n] q^n (q^{n+1})_inf, truncated at the order."""
    tails = _unit_tails(order)
    acc = [ring.zero] * (order + 1)
    for n, w in enumerate(weights):
        if w:
            _add_shifted(acc, tails[n], n, w)
    return TruncatedSeries(order, acc, ring)


def lambert_block(j: int, order: int, ring: CoefficientRing = RATIONAL) -> TruncatedSeries:
    """q^j / (1 - q^j) = q^j + q^(2j) + ..., the building block of Lambert sums."""
    if j < 1:
        raise ValueError("j must be positive")
    vals = [ring.zero] * (order + 1)
    for e in range(j, order + 1, j):
        vals[e] = ring.one
    return TruncatedSeries(order, vals, ring)


def _scalar_powers(c: ScalarLike, order: int) -> list:
    powers = [ring_for(c).one]
    for _ in range(order):
        powers.append(powers[-1] * c)
    return powers


def _alternating_sum(
    x: ScalarLike, fold: int, shift: Callable, weight: Callable, order: int
) -> TruncatedSeries:
    """sum_{n>=1} (-1)^(n-1) weight(n) q^shift(n) / ((1-q^n)^fold (xq)_n).

    A running 1/(xq)_n takes one factor per n and is cut to the degrees that
    shift(n), increasing in n, leaves inside the order.
    """
    ring = ring_for(x)
    acc = [ring.zero] * (order + 1)
    inv = [ring.one] + [ring.zero] * order
    n = 1
    while shift(n) <= order:
        del inv[order - shift(n) + 1 :]
        body = list(_over_factor(inv, x, n))
        for _ in range(fold):
            _over_factor(body, 1, n)
        _add_shifted(acc, body, shift(n), (-1) ** (n - 1) * weight(n))
        n += 1
    return TruncatedSeries(order, acc, ring)


# -- named series -----------------------------------------------------------


def series_A_quotient(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf via the product quotient."""
    ring = ring_for(c)
    coeffs = [ring.coerce(v) for v in pochhammer_infinite(1, order).coeffs]
    for k in range(1, order + 1):
        _over_factor(coeffs, c, k)
    return TruncatedSeries(order, coeffs, ring)


def series_A_euler(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf via the Euler expansion sum_n c^n q^n (q^{n+1})_inf."""
    return _tail_sum(_scalar_powers(c, order), order, ring_for(c))


def series_A(c: ScalarLike, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf, double-constructed (quotient vs Euler sum)."""
    quo = series_A_quotient(c, order)
    eul = series_A_euler(c, order)
    if quo != eul:
        raise AlgorithmFault(
            f"series_A double construction disagrees at order {order} for c={c}"
        )
    return quo


def series_M(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """sum_{n>=1} n^m c^n q^n (q^{n+1})_inf, truncated.

    The q^N coefficient is the signed distinct-partition weight sum
    sum_{pi in D(N)} (-1)^(#-1) s^m c^s; that bridge is checked by the
    identity suite, not here.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    cpow = _scalar_powers(c, order)
    weights = [0] + [n**m * cpow[n] for n in range(1, order + 1)]
    return _tail_sum(weights, order, ring_for(c))


def series_K_divisor(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """K_{m,c} = sum_n sigma_{m-1,c}(n) q^n from explicit divisor sums."""
    if m < 1:
        raise ValueError("m must be positive")
    ring = ring_for(c)
    cpow = _scalar_powers(c, order)
    vals = [ring.zero]
    for n in range(1, order + 1):
        total = None
        for d in divisors(n):
            term = d ** (m - 1) * cpow[d]
            total = term if total is None else total + term
        vals.append(ring.coerce(total))
    return TruncatedSeries(order, vals, ring)


def series_K_lambert(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """K_{m,c} as the Lambert sum over j of c^j j^(m-1) q^j/(1-q^j)."""
    if m < 1:
        raise ValueError("m must be positive")
    ring = ring_for(c)
    cpow = _scalar_powers(c, order)
    vals = [ring.zero] * (order + 1)
    for j in range(1, order + 1):
        weight = j ** (m - 1) * cpow[j]
        if weight:
            for e in range(j, order + 1, j):
                vals[e] = vals[e] + weight
    return TruncatedSeries(order, vals, ring)


def series_K(m: int, c: ScalarLike, order: int) -> TruncatedSeries:
    """Divisor-power generating function, double-constructed."""
    div = series_K_divisor(m, c, order)
    lam = series_K_lambert(m, c, order)
    if div != lam:
        raise AlgorithmFault(
            f"series_K double construction disagrees for m={m}, c={c}"
        )
    return div


def series_entry4(c: ScalarLike, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the alternating triangular-number sum identity:

        sum_n (-1)^(n-1) c^n q^(n(n+1)/2) / ((1-q^n)(cq)_n)
            =  sum_n c^n q^n / (1-q^n)

    Returned as (lhs, rhs); their equality is an identity check, and the
    c = 1 coefficients are the divisor counts d(n).
    """
    cpow = _scalar_powers(c, order)
    lhs = _alternating_sum(c, 1, lambda n: n * (n + 1) // 2, lambda n: cpow[n], order)
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

    a = _tail_sum([comb(n, k) for n in range(order + 1)], order, RATIONAL)

    offset = comb(k, 2)
    b_raw = _alternating_sum(1, k, lambda n: comb(n + k, 2), lambda n: 1, order + offset)
    if any(b_raw.coeffs[:offset]):
        raise AlgorithmFault(
            f"k-fold alternating sum has support below q^{offset} (k={k})"
        )
    b = TruncatedSeries(order, b_raw.coeffs[offset:])

    # (c): level[j] = sum over chains ending at top index j, as prefix sums of
    # q^j/(1-q^j) times the previous level at j
    zero, one = RATIONAL.zero, RATIONAL.one
    prev = [[one] + [zero] * order] * (order + 1)
    for _ in range(k):
        cur = [[zero] * (order + 1)]
        for j in range(1, order + 1):
            block = _over_factor(prev[j][: order + 1 - j], 1, j)
            cur.append(_add_shifted(list(cur[-1]), block, j, 1))
        prev = cur
    return a, b, TruncatedSeries(order, prev[order])


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
        zero = TruncatedSeries.zero(self.q_order, self.coeffs[0].ring)
        out = [zero] * (n + 1)
        for i, x in enumerate(self.coeffs):
            for j in range(n - i + 1):
                out[i + j] = out[i + j] + x * other.coeffs[j]
        return ExpSeries(out)

    def exp(self) -> "ExpSeries":
        """exp in t of a series with zero t-constant, coefficientwise exact."""
        if any(self.coeffs[0].coeffs):
            raise ValueError("exp needs a zero t-constant term")
        n = self.t_order
        ring = self.coeffs[0].ring
        out = [TruncatedSeries.zero(self.q_order, ring)] * (n + 1)
        out[0] = TruncatedSeries.one(self.q_order, ring)
        for m in range(1, n + 1):
            acc = TruncatedSeries.zero(self.q_order, ring)
            for k in range(1, m + 1):
                acc = acc + (self.coeffs[k] * out[m - k]).scale(Fraction(k, m))
            out[m] = acc
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

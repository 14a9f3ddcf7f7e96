"""Truncated q-series arithmetic and the named generating functions."""

import sys
from fractions import Fraction
from functools import cache, partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pie import series
from pie.exact import C, CPolynomial, _bias, _pack, _row, _times, divisors
from pie.series import (
    ExpSeries,
    TruncatedSeries,
    _add_shifted,
    _nested_lambert,
    _over_factor,
    _split,
    _times_factor,
    coefficient_rows,
    series_A,
    series_A_euler,
    series_A_quotient,
    series_K,
    series_K_divisor,
    series_K_lambert,
    series_M,
    series_dilcher_binomial,
    series_entry4,
)

from alternating import entry4_lhs
from convolution import schoolbook_product
from lambert import nested_lambert
from pochhammer import _product, a_quotient, pochhammer_infinite
from row_kernel import over_factor, times_factor

D_COUNTS = [0, 1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6, 2, 4, 4, 5, 2, 6, 2, 6]


def S(order, *coeffs):
    """The series with the given leading coefficients, zero past them."""
    return TruncatedSeries(order, [*coeffs, *[0] * (order + 1 - len(coeffs))])


# -- test-local series --------------------------------------------------------


def pochhammer_finite(x, n: int, order: int) -> TruncatedSeries:
    """(x q; q)_n = prod_{k=1..n} (1 - x q^k), truncated at the given order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _product(x, range(1, min(n, order) + 1), order)


def lambert_block(j: int, order: int) -> TruncatedSeries:
    """q^j / (1 - q^j) = q^j + q^(2j) + ..., the building block of Lambert sums."""
    if j < 1:
        raise ValueError("j must be positive")
    return TruncatedSeries(order, [int(e > 0 and e % j == 0) for e in range(order + 1)])


# -- elementwise arithmetic ---------------------------------------------------


def test_mul_example():
    assert S(3, 1, 1) * S(3, 1, -1) == S(3, 1, 0, -1)


def test_mul_identity():
    f = S(8, 2, 0, 1, -3, 0, 5)
    assert f * TruncatedSeries.one(8) == f


def test_geometric_telescopes():
    one = TruncatedSeries.one(10)
    assert (one + lambert_block(1, 10)) * S(10, 1, -1) == one


def test_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        S(3, 1) + S(4, 1)
    with pytest.raises(ValueError):
        S(3, 1) * S(4, 1)


def test_getitem_bounds():
    f = S(3, 1, 2, 3, 4)
    assert f[0] == 1 and f[3] == 4
    with pytest.raises(IndexError):
        f[4]
    with pytest.raises(IndexError):
        f[-1]


def test_shift_and_truncate():
    f = S(4, 1, 1)
    assert f.shift(2) == S(4, 0, 0, 1, 1)
    assert f.shift(4) == S(4, 0, 0, 0, 0, 1)
    assert f.truncate(2) == S(2, 1, 1)
    with pytest.raises(ValueError):
        f.truncate(9)


def test_scale_lifts_to_cpoly():
    # a CPolynomial scalar multiplies the numerators and keeps grade and den
    f = S(3, 1, 1).scale(C)
    assert f[1] == C and not f[2]
    g = S(3, Fraction(1, 2), 1).scale(2 * C)
    assert (g.grade, g.den) == (1, 2)
    assert g == S(3, C, 2 * C) and g[0] == C


@pytest.mark.parametrize("k", [3, Fraction(2, 3), C], ids=["int", "fraction", "c"])
@pytest.mark.parametrize(
    "s", [S(5, 2, 0, -1, 4), series_K(1, C, 5)], ids=["int-series", "row-series"]
)
def test_scalar_product_commutes(k, s):
    # __rmul__ is __mul__, whose scalar branch is scale
    assert k * s == s * k == s.scale(k)
    assert TruncatedSeries.__dict__["__rmul__"] is TruncatedSeries.__dict__["__mul__"]
    with pytest.raises(TypeError):
        2.5 * s


def test_equality_across_rings():
    # int and constant CPolynomial entries of one value are one series
    assert S(2, 1, 2) == S(2, CPolynomial(1), CPolynomial(2))
    assert S(2, Fraction(1, 2)) == S(2, CPolynomial(Fraction(1, 2)))


# -- inverse ------------------------------------------------------------------


def test_inverse_of_one_minus_q():
    assert S(4, 1, -1).inverse() == S(4, 1, 1, 1, 1, 1)


def test_inverse_of_one():
    assert TruncatedSeries.one(6).inverse() == TruncatedSeries.one(6)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        S(4, 0, 1).inverse()
    with pytest.raises(ValueError):
        S(4, C).inverse()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=0,
        max_size=8,
    )
)
def test_inverse_round_trip(tail):
    f = S(16, Fraction(1), *tail)
    assert f.inverse().inverse() == f
    assert f * f.inverse() == TruncatedSeries.one(16)


# -- exp / log ----------------------------------------------------------------


def test_exp_of_zero():
    assert TruncatedSeries.zero(5).exp() == TruncatedSeries.one(5)


def test_exp_log_round_trips():
    f = S(12, 0, 1, 1)
    assert f.exp().log() == f
    g = S(12, 1, -1)
    assert g.log().exp() == g


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        S(4, 1, 1).exp()
    with pytest.raises(ValueError):
        S(4, 0, 1).log()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        min_size=0,
        max_size=6,
    )
)
def test_exp_log_round_trip_random(tail):
    f = S(14, Fraction(0), *tail)
    assert f.exp().log() == f


# -- q-Pochhammer products ----------------------------------------------------


def test_pochhammer_finite_empty():
    assert pochhammer_finite(1, 0, 6) == TruncatedSeries.one(6)


def test_pochhammer_finite_example():
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3
    assert pochhammer_finite(1, 2, 4) == S(4, 1, -1, -1, 1)


def test_pochhammer_symbolic_single_factor():
    got = pochhammer_finite(C, 1, 3)
    assert got[0] == 1 and got[1] == -C and not got[2]


def test_pochhammer_infinite_pentagonal():
    # exponents of (q)_inf follow the pentagonal pattern 1, 2, 5, 7, ...
    assert pochhammer_infinite(1, 7) == S(7, 1, -1, -1, 0, 0, 1, 0, 1)


def test_pochhammer_infinite_trivial_cases():
    assert pochhammer_infinite(0, 5) == TruncatedSeries.one(5)
    assert pochhammer_infinite(1, 5, start=7) == TruncatedSeries.one(5)


def test_pochhammer_infinite_start():
    with pytest.raises(ValueError):
        pochhammer_infinite(1, 5, start=-2)
    half = Fraction(1, 2)
    assert pochhammer_infinite(half, 5, start=0) == pochhammer_infinite(half, 5).scale(half)


# -- the integer ring against the Fraction schoolbook ---------------------------


def schoolbook(a, b):
    """Reference truncated product of two coefficient sequences, computed
    directly on Fraction or CPolynomial values."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j in range(n - i + 1):
            out[i + j] = out[i + j] + x * b[j]
    return out


def regraded(f, grade, den_factor=1):
    """The same series stored at another grade and denominator."""
    den = f.den * den_factor
    return TruncatedSeries._stored(f.order, f._numerators(grade, den), grade, den)


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
POLYS = st.sampled_from([C, 2 * C - 1, C**2 + Fraction(1, 2)])
SCALARS = st.one_of(FRACTIONS, POLYS)
# series entries mixing rationals with Q[c] polynomials, constant ones included
ENTRIES = st.one_of(
    FRACTIONS, st.tuples(FRACTIONS, FRACTIONS).map(lambda ab: ab[0] + ab[1] * C)
)


def _series_cases(count):
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda order: st.tuples(
            st.just(order),
            *[st.lists(ENTRIES, min_size=order + 1, max_size=order + 1)] * count,
            st.integers(min_value=1, max_value=order),
        )
    )


@settings(max_examples=60, deadline=None)
@given(_series_cases(1), SCALARS)
def test_factor_kernels_match_series_arithmetic(case, x):
    # the kernels on numerators stored at x's grade against multiplying by
    # (1 - x q^k) and by its geometric inverse, sum_j x^j q^(jk): the row
    # kernel of tests/row_kernel.py always, series.py's int kernel on ints
    order, coeffs, k = case
    f = TruncatedSeries(order, coeffs)
    p, r = _split(x)
    g = regraded(f, r)
    factor = [1] + [0] * order
    factor[k] = -x
    geometric = [0] * (order + 1)
    for j in range(order // k + 1):
        geometric[j * k] = x**j
    w = _times(p, r ** (k - 1))  # p is a row for a polynomial x
    kernels = [(times_factor, factor), (over_factor, geometric)]
    if tuple not in map(type, (*g.nums, w)):
        kernels += [(_times_factor, factor), (_over_factor, geometric)]
    for kernel, other in kernels:
        got = TruncatedSeries._stored(order, kernel(list(g.nums), w, k), g.grade, g.den)
        assert list(got.coeffs) == schoolbook(f.coeffs, other), kernel.__name__


# stored numerators as plain coefficient lists in c, for a recurrence that
# shares no code with the row helpers


def _poly(v):
    return list(v) if isinstance(v, (tuple, list)) else [v]


def _poly_plus(x, y):
    x, y = _poly(x), _poly(y)
    return [a + b for a, b in zip(x + [0] * len(y), y + [0] * len(x))]


def _poly_times(x, y):
    x, y = _poly(x), _poly(y)
    out = [0] * (len(x) + len(y))
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def _trimmed(v):
    v = _poly(v)
    while v and not v[-1]:
        v.pop()
    return tuple(v)


KERNEL_CASES = {
    "ints": ([3, -1, 4, 0, 5, 9, -2], -2),
    "rows": ([(1,), (), (0, 2), (3, -1, 1), (), (5,), (0, 0, -4)], (1, 1)),
    "row-weight": ([2, 0, -1, 7, 0, 3], (0, 3)),
    "row-head": ([(1,), 0, 0, 0, 0], (0, 1)),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_factor_kernels_match_a_plain_recurrence(name):
    # series.py's kernel takes ints only; the row cases test the row kernel
    # that the packed builds are checked against
    coeffs, w = KERNEL_CASES[name]
    kernels = [times_factor, over_factor] + [_times_factor, _over_factor] * (name == "ints")
    minus_w = _poly_times(w, -1)
    for k in range(1, len(coeffs) + 2):
        # times: out[e] = c[e] - w c[e-k]; over: out[e] = c[e] + w out[e-k]
        times, over = list(coeffs), list(coeffs)
        for e in range(k, len(coeffs)):
            times[e] = _poly_plus(coeffs[e], _poly_times(minus_w, coeffs[e - k]))
            over[e] = _poly_plus(coeffs[e], _poly_times(w, over[e - k]))
        for kernel, want in zip(kernels, [times, over] * 2):
            got = kernel(list(coeffs), w, k)
            assert list(map(_trimmed, got)) == list(map(_trimmed, want)), (kernel.__name__, k)
            if k >= len(coeffs):
                assert got == coeffs, (kernel.__name__, k)


def test_shifted_add_of_nothing_reads_nothing():
    # an empty snapshot, as _times_factor takes at k >= len, leaves the list
    # as it was
    for acc, w in (([5, 1], 3), ([0, 0], -1), ([2], 4)):
        assert _add_shifted(list(acc), [], 1, w) == acc
        assert _add_shifted(list(acc), acc, len(acc), w) == acc


@settings(max_examples=80, deadline=None)
@given(
    _series_cases(2),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    POLYS,
)
def test_integer_ring_matches_fraction_schoolbook(case, r1, r2, den_factor, m, poly):
    # products, scaling, sums and equality across grades and denominators,
    # on entries mixing rationals and Q[c] polynomials
    order, a, b, _ = case
    f, g = TruncatedSeries(order, a), TruncatedSeries(order, b)
    fr, gr = regraded(f, r1, den_factor), regraded(g, r2)
    assert fr == f and gr == g and fr.coeffs == f.coeffs
    assert list((fr * gr).coeffs) == schoolbook(a, b)
    assert list((fr + gr).coeffs) == [x + y for x, y in zip(a, b)]
    inverse = Fraction(1, factorial(m))
    assert list(fr.scale(inverse).coeffs) == [x * inverse for x in a]
    assert list(fr.scale(poly).coeffs) == [x * poly for x in a]
    first = next((e for e, (x, y) in enumerate(zip(a, b)) if x != y), None)
    assert fr.first_difference(gr) == first
    assert (fr == gr) is (first is None)


# -- packed int products -------------------------------------------------------


@st.composite
def _int_numerators(draw, order: int):
    """order + 1 int numerators: zero, the series one, random ints of a drawn
    size, or graded growth s_k * r^k for small s_k and r in {2, 3}."""
    kind = draw(st.sampled_from(["zero", "one", "random", "graded"]))
    if kind in ("zero", "one"):
        return [int(kind == "one" and not k) for k in range(order + 1)]
    if kind == "random":
        top = 2 ** draw(st.integers(min_value=0, max_value=300))
        entries = st.integers(min_value=-top, max_value=top)
        return draw(st.lists(entries, min_size=order + 1, max_size=order + 1))
    r = draw(st.sampled_from([2, 3]))
    small = draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1))
    return [s * r**k for k, s in enumerate(small)]


def _packed_matches_schoolbook(xs, ys, grade=1, den=1):
    order = len(xs) - 1
    f = TruncatedSeries._stored(order, xs, grade, den)
    g = TruncatedSeries._stored(order, ys, grade)
    product = f * g
    assert product.nums == tuple(schoolbook_product(xs, ys))
    assert (product.grade, product.den) == (grade, den)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=80).flatmap(
        lambda order: st.tuples(_int_numerators(order), _int_numerators(order))
    ),
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=1, max_value=6),
)
def test_packed_product_matches_the_schoolbook_convolution(operands, grade, den):
    _packed_matches_schoolbook(*operands, grade, den)


SIGNS = {
    "plus": lambda k: 1,
    "minus": lambda k: -1,
    "alternating": lambda k: (-1) ** k,
}


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=1, max_value=80),
    st.sampled_from(sorted(SIGNS)),
    st.sampled_from(sorted(SIGNS)),
)
def test_packed_product_at_the_width_bound(order, b, x_signs, y_signs):
    # every numerator is +-(2^b - 1); with one sign on both sides |z_Q| =
    # (Q + 1)(2^b - 1)^2 fills the width the bit lengths bound, at every
    # width mod 8
    top = 2**b - 1
    xs = [SIGNS[x_signs](k) * top for k in range(order + 1)]
    ys = [SIGNS[y_signs](k) * top for k in range(order + 1)]
    _packed_matches_schoolbook(xs, ys)


def test_packed_product_at_the_largest_order():
    # Q = 300 at c = 2/3, the widest slots any accepted range takes, and the
    # worst-case numerators of the same bit length
    a, k = series_A(Fraction(2, 3), 300), series_K(3, Fraction(2, 3), 300)
    assert max(v.bit_length() for v in a.nums + k.nums) >= 470
    _packed_matches_schoolbook(list(a.nums), list(k.nums), grade=3)
    top = 2**480 - 1
    _packed_matches_schoolbook([top] * 301, [(-1) ** j * top for j in range(301)])


def test_rational_coefficients_are_fractions():
    # ints are stored, Fractions are read out, whatever the construction
    for f in (
        TruncatedSeries(3, [1, 2, 0, -1]),
        series_K(2, 1, 8),
        series_A(Fraction(2, 3), 8),
        series_M(1, Fraction(-1, 2), 8).scale(Fraction(1, 2)),
    ):
        assert all(type(v) is Fraction for v in f.coeffs)
        assert all(type(f[n]) is Fraction for n in range(f.order + 1))
    # a float is no exact coefficient: not as c, a scalar or an entry
    for build in (
        lambda: series_A(0.5, 5),
        lambda: series_M(1, 0.5, 5),
        lambda: S(2, 1).scale(0.5),
        lambda: TruncatedSeries(1, [1, 0.5]),
    ):
        with pytest.raises(TypeError):
            build()


def test_symbolic_series_coefficients_are_ints(monkeypatch):
    # the Q[c] builders and an integral series scaled by c stay on int
    # arithmetic: no CPolynomial arithmetic runs while they build, and every
    # stored numerator is a row of ints with a nonzero top entry
    def banned(*args):
        raise AssertionError("CPolynomial arithmetic in a symbolic build")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__truediv__", "__pow__"):
            patch.setattr(CPolynomial, name, banned)
        built = (
            *series_entry4(C, 40),
            series_M(3, C, 30),
            series_K(2, C, 30),
            series_A(C, 20),
            series_K(2, 1, 20).scale(C),
            TruncatedSeries.one(5).scale(C),
        )
    for f in built:
        assert (f.grade, f.den) == (1, 1)
        assert any(len(v) > 1 for v in f.nums)
        for v in f.nums:
            assert type(v) is tuple and all(type(x) is int for x in v)
            assert not v or v[-1]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(2, 3), Fraction(-1, 2), Fraction(0)])
def test_symbolic_series_evaluate_to_the_series_at_c(c):
    order = 20
    builders = {
        "A": lambda c: series_A(c, order),
        "M1": lambda c: series_M(1, c, order),
        "M3": lambda c: series_M(3, c, order),
        "K1": lambda c: series_K(1, c, order),
        "K3": lambda c: series_K(3, c, order),
        "entry4 lhs": lambda c: series_entry4(c, order)[0],
        "entry4 rhs": lambda c: series_entry4(c, order)[1],
    }
    for name, build in builders.items():
        symbolic, at_c = build(C), build(c)
        assert (symbolic.grade, at_c.grade) == (1, c.denominator), name
        # a c-free coefficient of a symbolic series reads out as a Fraction
        assert all(
            type(v) is Fraction or max(dict(v.items())) > 0 for v in symbolic.coeffs
        ), name
        assert all(isinstance(v, Fraction) for v in at_c.coeffs), name
        evaluated = [v.evaluate(c) if isinstance(v, CPolynomial) else v for v in symbolic.coeffs]
        assert evaluated == list(at_c.coeffs), name


def test_cancelled_coefficients_read_out_as_fractions():
    # a difference or product whose row numerators cancel to a constant
    # reads out as the builders' c-free coefficients do
    difference = series_A(C, 6) - series_A_euler(C, 6)
    assert type(difference[3]) is type(TruncatedSeries.zero(6)[3]) is Fraction
    assert all(type(v) is Fraction and v == 0 for v in difference.coeffs)
    product = S(2, 1, C, 0) * S(2, 1, -C, 0)
    assert [type(v) for v in product.coeffs] == [Fraction, Fraction, CPolynomial]
    assert product.coeffs == (1, 0, -(C**2))
    half = S(1, C + Fraction(1, 2)) - S(1, C)
    assert half[0] == Fraction(1, 2) and type(half[0]) is Fraction


# -- the CPolynomial-numerator construction, kept as an oracle ----------------
#
# Before rows, a symbolic numerator was a CPolynomial and every factor step
# ran the ring's own + and *.  These builders keep that construction at
# c = C on plain coefficient lists, sharing no code with the row helpers.


def cp_times_factors(nums, x, ks):
    """nums times prod_{k in ks} (1 - x q^k), in place."""
    for k in ks:
        for e in range(len(nums) - 1, k - 1, -1):
            nums[e] = nums[e] - x * nums[e - k]
    return nums


def cp_over_factor(nums, x, k):
    """nums over (1 - x q^k), in place."""
    for e in range(k, len(nums)):
        nums[e] = nums[e] + x * nums[e - k]
    return nums


def cp_one(order):
    return [CPolynomial(1)] + [CPolynomial(0)] * order


def cp_tail_sum(weights, order):
    """sum_n w_n q^n (q^{n+1})_inf on CPolynomial numerators."""
    acc = [CPolynomial(0)] * (order + 1)
    for n, w in enumerate(weights):
        tail = cp_times_factors(cp_one(order - n), 1, range(n + 1, order + 1))
        for i, t in enumerate(tail):
            acc[n + i] = acc[n + i] + w * t
    return acc


@cache
def cp_series(order):
    """name -> the CPolynomial coefficients of each symbolic builder's series."""
    cpow = [C**n for n in range(order + 1)]
    quotient = cp_times_factors(cp_one(order), 1, range(1, order + 1))
    for k in range(1, order + 1):
        cp_over_factor(quotient, C, k)
    out = {"A": quotient}
    for m in range(5):
        out[f"M{m}"] = cp_tail_sum([n**m * cpow[n] if n else 0 for n in range(order + 1)], order)
    for m in range(1, 5):
        out[f"K{m}"] = [CPolynomial(0)] + [
            sum((d ** (m - 1) * cpow[d] for d in divisors(n)), CPolynomial(0))
            for n in range(1, order + 1)
        ]
    # sum_n (-1)^(n-1) c^n q^(n(n+1)/2) / ((1-q^n)(cq)_n), with a running 1/(cq)_n
    lhs, inv, n = [CPolynomial(0)] * (order + 1), cp_one(order), 1
    while n * (n + 1) // 2 <= order:
        body = cp_over_factor(list(cp_over_factor(inv, C, n)), CPolynomial(1), n)
        s = n * (n + 1) // 2
        for i in range(order + 1 - s):
            lhs[s + i] = lhs[s + i] + (-1) ** (n - 1) * cpow[n] * body[i]
        n += 1
    out["entry4 lhs"] = lhs
    out["entry4 rhs"] = out["K1"]
    return out


ROW_BUILDERS = {
    "A": lambda q: series_A(C, q),
    **{f"M{m}": partial(series_M, m, C) for m in range(5)},
    **{f"K{m}": partial(series_K, m, C) for m in range(1, 5)},
    "entry4 lhs": lambda q: series_entry4(C, q)[0],
    "entry4 rhs": lambda q: series_entry4(C, q)[1],
}


@pytest.mark.parametrize("name", ROW_BUILDERS)
def test_symbolic_rows_match_the_cpolynomial_construction(name):
    # a series at order Q is the first Q + 1 coefficients of the series
    oracle = cp_series(80)[name]
    for order in range(81):
        assert list(ROW_BUILDERS[name](order).coeffs) == oracle[: order + 1], order


NON_MONOMIAL_ROWS = {
    "1+2c": 1 + 2 * C,
    "1+c": 1 + C,
    "quadratic": Fraction(1, 2) - C / 3 + C**2,
}


@pytest.mark.parametrize(
    "builder, weight",
    [
        (lambda c: series_M(2, c, 20), lambda c, n: n**2 * c**n if n else 0),
        (lambda c: series_A_euler(c, 20), lambda c, n: c**n),
    ],
    ids=["M2", "A-euler"],
)
@pytest.mark.parametrize("c", NON_MONOMIAL_ROWS.values(), ids=NON_MONOMIAL_ROWS)
def test_tail_sum_of_non_monomial_row_weights(builder, weight, c):
    # weights mixing several powers of c: one int sum per power of c, put
    # back together into the rows, against the CPolynomial construction
    oracle = cp_tail_sum([weight(c, n) for n in range(21)], 20)
    assert list(builder(c).coeffs) == oracle


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("c", NON_MONOMIAL_ROWS.values(), ids=NON_MONOMIAL_ROWS)
def test_series_K_at_non_monomial_rows(m, c):
    # both K builders packed in c, against the Lambert sum
    # sum_j j^(m-1) c^j q^j / (1 - q^j) on CPolynomial coefficients
    oracle = [CPolynomial(0)] * 21
    for j in range(1, 21):
        for e in range(j, 21, j):
            oracle[e] = oracle[e] + j ** (m - 1) * c**j
    assert list(series_K(m, c, 20).coeffs) == oracle


def test_symbolic_builds_and_comparisons_run_no_row_arithmetic(monkeypatch):
    # the builders compute on ints and compare stored rows: with the row sum
    # and product raising wherever pie's modules bind them, the symbolic
    # builds still run their double constructions and compare, at their own
    # and at another grade and den
    def banned(*args):
        raise AssertionError("row arithmetic in a symbolic build")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pie"]
    for module in modules:
        for name in ("_plus", "_times"):
            if name in vars(module):
                monkeypatch.setattr(module, name, banned)
    lhs, rhs = series_entry4(C, 40)
    for f in (series_A(C, 40), series_K(4, C, 40), series_M(2, C, 40), lhs):
        assert f == regraded(f, 3, 2) and f != regraded(f, 3, 2).shift(1)
    assert lhs == rhs


# -- named series -------------------------------------------------------------


def test_series_A_at_one_and_zero():
    assert series_A(Fraction(1), 10) == TruncatedSeries.one(10)
    assert series_A(Fraction(0), 10) == pochhammer_infinite(1, 10)


def test_series_A_double_construction_symbolic():
    assert series_A_quotient(C, 12) == series_A_euler(C, 12)
    series_A(C, 12)  # must not fault


@pytest.mark.parametrize("q_order", [8, 16])
def test_series_A_double_construction_orders(q_order):
    assert series_A_quotient(C, q_order) == series_A_euler(C, q_order)


def test_log_series_A_is_weighted_lambert_sum():
    # log((q)_inf/(cq)_inf) = log((q)_inf) + sum_m (c^m/m) q^m/(1-q^m)
    order = 25
    c = Fraction(2, 3)
    lhs = series_A(c, order).log()
    rhs = pochhammer_infinite(1, order).log()
    cpow = Fraction(1)
    for m in range(1, order + 1):
        cpow *= c
        rhs = rhs + lambert_block(m, order).scale(cpow / m)
    assert lhs == rhs


def test_series_M_divisor_coefficients():
    m1 = series_M(1, Fraction(1), 10)
    assert [m1[i] for i in range(1, 7)] == [1, 2, 2, 3, 2, 4]
    assert m1[6] == 4


def test_series_M_zeroth_moment_telescopes():
    order = 14
    m0 = series_M(0, Fraction(1), order)
    assert m0 == TruncatedSeries.one(order) - pochhammer_infinite(1, order)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_series_M_rows_scale_by_s_to_the_m(m):
    # eq_1_13 rests on this: at symbolic c, the c^s q^N coefficient of M_m is
    # s^m times M_0's, so one build of M_0 settles every m
    m0, mm = series_M(0, C, 60), series_M(m, C, 60)
    assert (m0.den, m0.grade, mm.den, mm.grade) == (1, 1, 1, 1)
    assert all(m0.nums[1:])  # every q^N past q^0 has a row
    for N in range(61):
        assert mm.nums[N] == tuple(s**m * a for s, a in enumerate(m0.nums[N]))


def test_series_K_divisor_coefficients():
    k1 = series_K(1, Fraction(1), 8)
    assert [k1[i] for i in range(1, 6)] == [1, 2, 2, 3, 2]
    k2 = series_K(2, Fraction(1), 8)
    assert [k2[i] for i in range(1, 5)] == [1, 3, 4, 7]


def test_series_K_symbolic_coefficient():
    k1 = series_K(1, C, 6)
    assert k1[4] == C + C**2 + C**4


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_series_K_double_construction_symbolic(m):
    assert series_K_divisor(m, C, 30) == series_K_lambert(m, C, 30)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symbolic_K_rows_match_the_divisor_closed_form(m):
    # both K constructions decode the same packed ints, so only a closed form
    # sees a row read from slots of the wrong width: row n holds d^(m-1) at
    # c^d for each d | n, found here by plain trial division
    order = 300
    k = series_K(m, C, order)
    assert (k.grade, k.den) == (1, 1)
    rows = [
        tuple(0 if not d or n % d else d ** (m - 1) for d in range(n + 1))
        for n in range(1, order + 1)
    ]
    assert list(k.nums) == [(), *rows]


def test_series_entry4_divisor_counts_at_one():
    lhs, rhs = series_entry4(Fraction(1), 20)
    assert lhs == rhs
    assert [lhs[i] for i in range(1, 21)] == D_COUNTS[1:21]


def test_series_entry4_degenerates_at_zero():
    lhs, rhs = series_entry4(Fraction(0), 8)
    assert lhs == TruncatedSeries.zero(8)
    assert rhs == TruncatedSeries.zero(8)


def test_series_entry4_symbolic():
    lhs, rhs = series_entry4(C, 12)
    assert lhs == rhs


# -- builds packed in c ----------------------------------------------------------

PACKED_CS = {
    "c": C,
    "-c": -C,
    "c/2": C / 2,
    "(2c+1)/3": (2 * C + 1) / 3,
    "c^2": C**2,
    "3c-c^3": 3 * C - C**3,
    "0": CPolynomial(0),
}


def _matches_the_row_build(build, reference, c):
    # the packed build at every Q <= 60 keeps the stored form of the row
    # build, a series at order Q being the first Q + 1 numerators of the one
    # at 60; a row (1,) may stand for the int 1 at Q = 0
    want = reference(c, 60)
    for order in range(61):
        got = build(c, order)
        assert (got.grade, got.den) == (want.grade, want.den), order
        assert got.nums == tuple(map(_row, want.nums[: order + 1])), order


@pytest.mark.parametrize("c", PACKED_CS.values(), ids=PACKED_CS)
def test_packed_entry4_matches_the_row_sum(c):
    # the int sum at c = p(2^W) / r, unpacked, against the sum run on rows
    _matches_the_row_build(lambda c, q: series_entry4(c, q)[0], entry4_lhs, c)


@pytest.mark.parametrize("c", PACKED_CS.values(), ids=PACKED_CS)
def test_packed_quotient_matches_the_row_product(c):
    # the int quotient at c = p(2^W) / r, unpacked, against the row kernel's
    _matches_the_row_build(series_A_quotient, a_quotient, c)


def _slots_hold_the_majorant(monkeypatch, build, c, builds):
    # each of the builds packed in c runs two int builds: the majorant at
    # |p|_1, whose q^j numerator bounds the sum of |entries| of row j, then
    # the build at p(2^W); the slot of W bits is the fewest bytes that keep
    # two bits over the largest bound
    real_in_rows, real_row_of, packed = series._in_rows, series._row_of, []

    def spied(int_build, p):
        calls, sizes = [], set()

        def spy(x, sign):
            calls.append((x, sign, int_build(x, sign)))
            return calls[-1][2]

        packed.append((calls, sizes))
        rows = real_in_rows(spy, p)
        packed[-1] += (rows,)
        return rows

    def spied_row_of(v, size):
        packed[-1][1].add(size)
        return real_row_of(v, size)

    monkeypatch.setattr(series, "_in_rows", spied)
    monkeypatch.setattr(series, "_row_of", spied_row_of)
    build(c)
    assert len(packed) == builds
    p = _split(c)[0]
    for ((norm, minus, bound), (at, plus, _packed)), (size,), rows in packed:
        assert (norm, minus, plus) == (sum(map(abs, p)), -1, 1)
        assert all(sum(map(abs, row)) <= b for row, b in zip(rows, bound))
        assert at == _pack(p, size, _bias(size, len(p)))
        assert 8 * size - 8 < max(norm, *bound).bit_length() + 2 <= 8 * size


@pytest.mark.parametrize("c", PACKED_CS.values(), ids=PACKED_CS)
def test_packed_entry4_slots_hold_the_majorant(monkeypatch, c):
    # the left side, then K_1 for the right
    _slots_hold_the_majorant(monkeypatch, lambda c: series_entry4(c, 60), c, 2)


@pytest.mark.parametrize("c", PACKED_CS.values(), ids=PACKED_CS)
def test_packed_quotient_slots_hold_the_majorant(monkeypatch, c):
    _slots_hold_the_majorant(monkeypatch, lambda c: series_A_quotient(c, 60), c, 1)


@pytest.mark.parametrize(
    "build, builds",
    [
        (lambda c: series_K(3, c, 60), 2),
        (lambda c: series_M(2, c, 60), 1),
        (lambda c: series_A_euler(c, 60), 1),
    ],
    ids=["K3", "M2", "A-euler"],
)
@pytest.mark.parametrize("c", PACKED_CS.values(), ids=PACKED_CS)
def test_packed_K_and_tail_weights_slots_hold_the_majorant(monkeypatch, build, builds, c):
    # both K builders pack their numerators; the tail sums pack their weights
    _slots_hold_the_majorant(monkeypatch, build, c, builds)


def test_dilcher_reduces_to_triple_identity_at_one():
    (a, b), (c3,) = series_dilcher_binomial(1, 10), _nested_lambert(1, 10)
    assert a == b == c3
    assert [a[i] for i in range(1, 11)] == D_COUNTS[1:11]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dilcher_threeway_agreement(k):
    a, b = series_dilcher_binomial(k, 12)
    assert a == b
    assert a == _nested_lambert(k, 12)[k - 1]


@cache
def cached_nested_lambert(k, order):
    return tuple(nested_lambert(k, order))


LEVEL_CALLS = {
    "ascending": lambda order: [(k, order) for k in range(1, 7)],
    "descending": lambda order: [(k, order) for k in range(6, 0, -1)],
    # each k right after a build at the next order
    "interleaved": lambda order: [(k, q) for k in range(1, 7) for q in (order + 1, order)],
}


@pytest.mark.parametrize("calls", LEVEL_CALLS.values(), ids=LEVEL_CALLS)
def test_dilcher_lambert_levels_match_a_from_scratch_loop(calls):
    # construction (c) for every k <= k_max from one pass over its levels,
    # each level built from the one below, against each k built anew; no
    # call order may change it
    for order in range(1, 41):
        for k_max, q in calls(order):
            nested = _nested_lambert(k_max, q)
            assert len(nested) == k_max
            for k, series_k in enumerate(nested, 1):
                assert series_k.nums == cached_nested_lambert(k, q), (k, k_max, q)


def test_series_K_divisor_divides_each_n_once(monkeypatch):
    # every K_m of a run reads one trial division of each n <= Q; nothing
    # outlives the run, so a second run divides again
    from pie.identities import CheckConfig, run_all

    real, calls = series.divisors, []
    monkeypatch.setattr(series, "divisors", lambda n: calls.append(n) or real(n))
    for runs in (1, 2):
        assert all(r.passed for r in run_all(CheckConfig(n_max=6, q_order=30, m_max=3)))
        assert sorted(calls) == sorted(list(range(1, 31)) * runs)


def test_dilcher_validation():
    with pytest.raises(ValueError):
        series_dilcher_binomial(0, 10)
    with pytest.raises(ValueError):
        series_dilcher_binomial(7, 10)
    with pytest.raises(ValueError):
        series_dilcher_binomial(4, 2)


def test_coefficient_rows_skip_zeros():
    rows = coefficient_rows(S(5, 1, 0, Fraction(2, 3), 0, -1))
    assert rows == [(0, "1"), (2, "2/3"), (4, "-1")]


@pytest.mark.parametrize(
    "build, text",
    [
        # at a rational c
        (
            lambda: series_A(Fraction(2, 3), 4),
            "1 - 1/3*q - 5/9*q^2 - 10/27*q^3 - 38/81*q^4 + O(q^5)",
        ),
        # symbolic coefficients print in parentheses
        (
            lambda: series_A(C, 4),
            "1 + (-1 + c)*q + (-1 + c^2)*q^2 + (-c + c^3)*q^3 + (-c + c^4)*q^4 + O(q^5)",
        ),
        (
            lambda: S(3, -C, 0, 1 - C, Fraction(1, 2) * C**2 - 1),
            "(-c) + (1 - c)*q^2 + (-1 + 1/2*c^2)*q^3 + O(q^4)",
        ),
        (lambda: S(2, -1, C, -C), "-1 + (c)*q + (-c)*q^2 + O(q^3)"),
        # unit and Fraction coefficients
        (lambda: S(3, 0, -1, 1), "-q + q^2 + O(q^4)"),
        (
            lambda: S(4, Fraction(1, 2), Fraction(1, 2), -1, 0, Fraction(-3, 4)),
            "1/2 + 1/2*q - q^2 - 3/4*q^4 + O(q^5)",
        ),
        (lambda: TruncatedSeries.zero(3), "0 + O(q^4)"),
    ],
)
def test_series_str(build, text):
    assert str(build()) == text


def test_series_repr():
    assert repr(S(3, 0, -1, 1)) == "TruncatedSeries(order=3, -q + q^2 + O(q^4))"
    assert repr(series_A(C, 3)) == (
        "TruncatedSeries(order=3, 1 + (-1 + c)*q + (-1 + c^2)*q^2 + (-c + c^3)*q^3 + O(q^4))"
    )


# -- series in t over q-series ------------------------------------------------


def test_exp_series_exponential():
    order = 8
    zero = TruncatedSeries.zero(order)
    one = TruncatedSeries.one(order)
    g = ExpSeries([zero, one, zero])  # t
    e = g.exp().coeffs
    assert e[0] == one
    assert e[1] == one
    assert e[2] == one.scale(Fraction(1, 2))


def test_exp_series_requires_zero_constant():
    order = 4
    with pytest.raises(ValueError):
        ExpSeries([TruncatedSeries.one(order)]).exp()


def test_exp_series_product():
    order = 6
    zero = TruncatedSeries.zero(order)
    one = TruncatedSeries.one(order)
    a = ExpSeries([one, one, zero])  # 1 + t
    b = (a * a).coeffs  # 1 + 2t + t^2
    assert b[0] == one and b[1] == one.scale(2) and b[2] == one

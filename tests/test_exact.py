"""Divisor arithmetic, the c-polynomial ring, complex powers, Bell polynomials."""

from fractions import Fraction
from math import factorial, gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumeration import enumerate_partitions
from pie.exact import (
    BELL_DEGREE_CAP,
    C,
    CPolynomial,
    _bias,
    _c_powers,
    _pack,
    _sum_weighed,
    _unpack,
    _weigh,
    _z_powers,
    bell_polynomial,
    complex_power,
    divisors,
    fractional_weight,
    sigma_int,
)
from sides import lhs_rhs_thm21

# frozen from a 40-digit re-summation of sum_d d^z c^d over d | 12
SIGMA_ORACLE_Z = complex(1.5, 0.5)
SIGMA_ORACLE_C = complex(0.4, -0.3)
SIGMA_ORACLE_VALUE = complex(0.5705320035297089, -2.027539296014291)

# frozen from a 40-digit evaluation of exp(i ln 2)
TWO_TO_THE_I = complex(0.7692389013639721, 0.6389612763136348)


# -- test-local oracles ------------------------------------------------------


def sigma_zc_exact(z: int, n: int) -> CPolynomial:
    """The divisor polynomial: sum over d | n of d^z * c^d."""
    if not isinstance(z, int) or z < 0:
        raise ValueError("z must be a nonnegative integer")
    return CPolynomial({d: d**z for d in divisors(n)})


def bell_polynomial_direct(m: int, u):
    """Y_m evaluated straight from its sum over partitions of m.

    Independent of the recurrence route: for each multiset of parts with
    k_1 + 2 k_2 + ... + m k_m = m the contribution is

        m! / (k_1! ... k_m!) * prod_i (u_i / i!)^{k_i}

    whose scalar factor is always an integer.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m > BELL_DEGREE_CAP:
        raise ValueError(f"m={m} exceeds the Bell degree cap {BELL_DEGREE_CAP}")
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


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


@pytest.mark.parametrize("n", range(1, 200))
def test_divisors_against_range_scan(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_sigma_int_examples():
    assert sigma_int(0, 6) == 4
    assert sigma_int(1, 6) == 12
    assert sigma_int(2, 6) == 50


def test_sigma_zc_exact_examples():
    assert sigma_zc_exact(1, 4) == CPolynomial({1: 1, 2: 2, 4: 4})
    assert sigma_zc_exact(0, 1) == C


@pytest.mark.parametrize("z", [0, 1, 2, 3])
def test_sigma_zc_exact_at_one_matches_sigma_int(z):
    for n in range(1, 101):
        assert sigma_zc_exact(z, n).evaluate(Fraction(1)) == sigma_int(z, n)


def sigma_zc_numeric(z, c, n):
    """sum over d | n of d^z * c^d, by the numeric evaluator."""
    return fractional_weight([(d, 1) for d in divisors(n)], z, c)[0]


def test_sigma_zc_numeric_integer_cases():
    assert sigma_zc_numeric(0, 1, 6) == pytest.approx(4)
    assert sigma_zc_numeric(2, 1, 6) == pytest.approx(50)


def test_sigma_zc_numeric_against_high_precision_oracle():
    value = sigma_zc_numeric(SIGMA_ORACLE_Z, SIGMA_ORACLE_C, 12)
    assert abs(value - SIGMA_ORACLE_VALUE) <= 1e-9 * abs(SIGMA_ORACLE_VALUE)


@pytest.mark.parametrize("z", [0, 1, 2, 3])
@pytest.mark.parametrize("c", [Fraction(2, 5), Fraction(-3, 10), Fraction(1, 3)])
def test_numeric_matches_exact_evaluation(z, c):
    for n in range(1, 41):
        exact = sigma_zc_exact(z, n).evaluate(c)
        numeric = sigma_zc_numeric(z, complex(c), n)
        assert abs(numeric - complex(exact)) <= 1e-12 * max(1.0, abs(complex(exact)))


def test_complex_power_basics():
    assert complex_power(1, 3.7 + 2j) == 1
    assert complex_power(5, 2) == pytest.approx(25)
    assert complex_power(2, 1j) == pytest.approx(TWO_TO_THE_I)
    with pytest.raises(ValueError):
        complex_power(0, 1)


def test_complex_power_is_multiplicative_in_z():
    zs = [1.5, -1, 0.5 + 0.5j, 2 - 1j, 0j]
    for j in (2, 3, 7, 10):
        for z1 in zs:
            for z2 in zs:
                lhs = complex_power(j, z1 + z2)
                rhs = complex_power(j, z1) * complex_power(j, z2)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_fractional_weight_definition_chase():
    for n in (6, 12, 30):
        p = CPolynomial({d: 1 for d in divisors(n)})
        z, c = 1.5 + 0.5j, 0.4 - 0.3j
        value, magnitude = fractional_weight(p.items(), z, c)
        assert value == pytest.approx(sigma_zc_numeric(z, c, n))
        assert magnitude >= abs(value)


def test_fractional_weight_single_term():
    # 3c^2 under z=1 becomes 6c^2
    c = 0.7
    assert fractional_weight(CPolynomial({2: 3}).items(), 1, c)[0] == pytest.approx(6 * c**2)


def test_fractional_weight_zero_is_identity():
    p = CPolynomial({0: 5, 1: -2, 3: Fraction(1, 2)})
    c = 0.3 + 0.2j
    assert fractional_weight(p.items(), 0, c)[0] == pytest.approx(complex(p.evaluate(c)))


def _theta(p: CPolynomial) -> CPolynomial:
    # the exact operator c * d/dc
    return CPolynomial({e: e * v for e, v in p.items()})


@pytest.mark.parametrize("z", [1, 2, 3])
def test_fractional_weight_matches_exact_operator(z):
    polys = [
        CPolynomial({0: 2, 1: 1, 5: Fraction(-3, 7), 20: 4}),
        CPolynomial({3: 1, 4: 1, 11: Fraction(2, 3)}),
        CPolynomial({0: 1}),
    ]
    c = Fraction(2, 5)
    for p in polys:
        expected = p
        for _ in range(z):
            expected = _theta(expected)
        got, _ = fractional_weight(p.items(), z, complex(c))
        assert got == pytest.approx(complex(expected.evaluate(c)))


def per_term_weight(pairs, z, c) -> tuple[complex, float]:
    """sum_e a(e) * e^z * c^e with every power formed per term, and the sum
    of the term magnitudes: the reference the power tables must reproduce."""
    c = complex(c)
    total, magnitude = 0j, 0.0
    for e, a in pairs:
        term = a * (complex_power(e, z) if e else complex(z == 0)) * c**e
        # a plain running sum: sum() of floats is compensated from Python 3.12
        total += term
        magnitude += abs(term)
    return total, magnitude


def same_bits(x, y) -> bool:
    # == with signed zeros told apart
    return x == y and repr(x) == repr(y)


SIGNED_ZEROS = st.sampled_from([0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
WEIGHT_PAIRS = st.dictionaries(
    st.integers(0, 30),
    st.integers(-(10**6), 10**6) | st.fractions(max_denominator=50),
    min_size=1,
).map(lambda d: sorted(d.items()))


def _grid_points(max_magnitude: float):
    point = SIGNED_ZEROS | st.complex_numbers(max_magnitude=max_magnitude)
    # the first point again at the end: a duplicate grid position
    return st.lists(point, min_size=1, max_size=3).map(lambda g: g + g[:1])


@settings(max_examples=150, deadline=None)
@given(pairs=WEIGHT_PAIRS, z_grid=_grid_points(3.0), c_grid=_grid_points(2.0))
@example(pairs=[(0, 3), (1, -2), (4, 5)], z_grid=[0j, -0j, 0j], c_grid=[-0j, 0j, -0j])
@example(pairs=[(0, 1)], z_grid=[complex(0.0, -0.0)], c_grid=[complex(-0.0, 0.0)])
def test_power_tables_are_bit_identical_to_per_term_powers(pairs, z_grid, c_grid):
    # the numeric checks' path: tables per grid position to a top past every
    # exponent, each pairs list weighed once per z and summed at every c
    top = 30
    c_tables = [_c_powers(c, top) for c in c_grid]
    for z in z_grid:
        weighed = _weigh(pairs, _z_powers(z, top))
        for c, c_table in zip(c_grid, c_tables):
            value, magnitude = _sum_weighed(weighed, c_table)
            ref_value, ref_magnitude = per_term_weight(pairs, z, c)
            assert same_bits(value, ref_value), (z, c)
            assert same_bits(magnitude, ref_magnitude), (z, c)
            single = fractional_weight(pairs, z, c)
            assert same_bits(single[0], ref_value) and same_bits(single[1], ref_magnitude)


def test_power_tables_entry_zero_and_overflow():
    assert _z_powers(0j, 2)[0] == 1 and _z_powers(-0j, 2)[0] == 1
    assert _z_powers(1.5, 2)[0] == 0
    with pytest.raises(ValueError, match=r"z=1000 "):
        _z_powers(1000, 3)
    with pytest.raises(ValueError, match=r"c=\(1e\+300\+0j\)"):
        _c_powers(1e300, 2)
    assert fractional_weight([], 1000, 1e300) == (0j, 0.0)


# -- CPolynomial ring ---------------------------------------------------------


def test_cpoly_normal_form():
    assert CPolynomial({2: 0, 1: 1}) == C
    assert CPolynomial(0).is_zero
    assert (C - C).is_zero
    assert CPolynomial({0: Fraction(3, 1)}) == 3


def test_cpoly_arithmetic():
    p = (C + 1) * (C - 1)
    assert p == CPolynomial({2: 1, 0: -1})
    assert C**3 == CPolynomial({3: 1})
    assert (2 * C + 1) / 2 == CPolynomial({1: 1, 0: Fraction(1, 2)})
    assert 1 - C == CPolynomial({0: 1, 1: -1})


def test_cpoly_rejects_floats():
    with pytest.raises(TypeError):
        CPolynomial(1.5)
    with pytest.raises(TypeError):
        CPolynomial({1: 0.5})


def test_cpoly_power_and_degree():
    assert (C + 1) ** 0 == 1
    assert ((C + 1) ** 2) == CPolynomial({0: 1, 1: 2, 2: 1})
    assert CPolynomial(0).degree == -1
    assert (C**7).degree == 7


def test_cpoly_str():
    assert str(C + 2 * C**2) == "c + 2*c^2"
    assert str(CPolynomial(0)) == "0"
    assert str(1 - C) == "1 - c"


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=6), small_fracs, max_size=4
).map(CPolynomial)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_cpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_fracs)
def test_cpoly_evaluation_is_a_homomorphism(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


# integer or Fraction coefficients, so integral values arrive both ways
mixed_coeffs = st.one_of(st.integers(min_value=-9, max_value=9), small_fracs)
mixed_dicts = st.dictionaries(st.integers(min_value=0, max_value=6), mixed_coeffs, max_size=4)


def _oracle(data) -> dict[int, Fraction]:
    return {e: Fraction(v) for e, v in data.items() if v}


def _oracle_mul(a, b) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return _oracle(out)


def _oracle_add(a, b, sign=1) -> dict[int, Fraction]:
    return _oracle({e: a.get(e, 0) + sign * b.get(e, 0) for e in a.keys() | b.keys()})


def _poly_text(expected: dict[int, Fraction]) -> str:
    """The str format, printed here from the expected coefficients."""
    pieces = []
    for e, v in sorted(expected.items()):
        var = "c" if e == 1 else f"c^{e}"
        if e == 0:
            pieces.append(str(v))
        elif v == 1:
            pieces.append(var)
        elif v == -1:
            pieces.append(f"-{var}")
        else:
            pieces.append(f"{v}*{var}")
    return " + ".join(pieces).replace("+ -", "- ") if pieces else "0"


def _assert_row_form(p: CPolynomial, expected: dict[int, Fraction]) -> None:
    # the stored form: a row of ints with no zero top entry, over a den >= 1
    # coprime to the row
    row, den = p._num, p._den
    assert type(row) is tuple and all(type(v) is int for v in row), row
    assert not row or row[-1], row
    assert type(den) is int and den >= 1 and gcd(den, *row) == 1, (row, den)
    # the Fraction boundary
    items = tuple(sorted(expected.items()))
    assert p.items() == items
    assert all(type(v) is Fraction for _, v in p.items())
    for e in range(-1, 14):
        assert p.coefficient(e) == expected.get(e, 0)
        assert type(p.coefficient(e)) is Fraction
    assert repr(p) == f"CPolynomial({dict(items)!r})"
    assert str(p) == _poly_text(expected)


@settings(max_examples=150, deadline=None)
@given(mixed_dicts, mixed_dicts, small_fracs.filter(bool), st.integers(0, 3))
def test_cpoly_integer_normal_form(a, b, divisor, k):
    oa, ob = _oracle(a), _oracle(b)
    pa, pb = CPolynomial(a), CPolynomial(b)
    _assert_row_form(pa, oa)
    _assert_row_form(pa + pb, _oracle_add(oa, ob))
    _assert_row_form(pa - pb, _oracle_add(oa, ob, -1))
    _assert_row_form(-pa, _oracle_add({}, oa, -1))
    _assert_row_form(pa * pb, _oracle_mul(oa, ob))
    _assert_row_form(pa * divisor, _oracle({e: v * divisor for e, v in oa.items()}))
    _assert_row_form(pa / divisor, _oracle({e: v / divisor for e, v in oa.items()}))
    power = {0: Fraction(1)}
    for _ in range(k):
        power = _oracle_mul(power, oa)
    _assert_row_form(pa**k, power)
    for x in (divisor, Fraction(2), 3):
        value = pa.evaluate(x)
        assert type(value) is Fraction
        assert value == sum((v * Fraction(x) ** e for e, v in oa.items()), Fraction(0))


def test_cpoly_boundary_examples():
    p = CPolynomial({0: 3, 1: Fraction(4, 2), 2: Fraction(1, 2)})
    # stored over the lcm 2 of the coefficients' dens
    assert (p._num, p._den) == ((6, 4, 1), 2)
    assert [type(v) for v in p._num] == [int, int, int]
    # a zero entry is dropped, and an integral Fraction stores over den 1
    assert CPolynomial({3: 0, 1: Fraction(-6, 3)})._num == (0, -2)
    assert (CPolynomial(Fraction(4, 2))._num, CPolynomial(Fraction(4, 2))._den) == ((2,), 1)
    assert repr(p) == "CPolynomial({0: Fraction(3, 1), 1: Fraction(2, 1), 2: Fraction(1, 2)})"
    assert str(p) == "3 + 2*c + 1/2*c^2"
    assert p.items() == ((0, Fraction(3)), (1, Fraction(2)), (2, Fraction(1, 2)))
    assert p.evaluate(1) == Fraction(11, 2) and type(CPolynomial(4).evaluate(1)) is Fraction
    assert type(CPolynomial(0).evaluate(Fraction(1, 3))) is Fraction
    assert p.evaluate(2j) == 3 + 4j - 2


# -- Bell polynomials ---------------------------------------------------------


def test_bell_first_values():
    u = sympy.symbols("u1:9")
    assert bell_polynomial(0, ()) == 1
    assert bell_polynomial(1, u) == u[0]
    assert sympy.expand(bell_polynomial(2, u)) == u[0] ** 2 + u[1]
    y3 = sympy.expand(bell_polynomial(3, u))
    assert y3 == u[0] ** 3 + 3 * u[0] * u[1] + u[2]


@pytest.mark.parametrize("m", range(0, 9))
def test_bell_recurrence_matches_partition_sum(m):
    u = sympy.symbols("u1:10")
    lhs = sympy.expand(bell_polynomial(m, u))
    rhs = sympy.expand(bell_polynomial_direct(m, u))
    assert lhs == rhs


@pytest.mark.parametrize("m", range(1, 7))
def test_bell_against_sympy_partial_bell(m):
    u = sympy.symbols("u1:10")
    expected = sympy.expand(
        sum(sympy.bell(m, k, u[: m - k + 1]) for k in range(1, m + 1))
    )
    assert sympy.expand(bell_polynomial(m, u)) == expected


def test_bell_cap_and_validation():
    assert bell_polynomial(BELL_DEGREE_CAP, [1] * BELL_DEGREE_CAP) == 115975  # the Bell number B_10
    with pytest.raises(ValueError):
        bell_polynomial(11, list(range(1, 12)))
    with pytest.raises(ValueError):
        bell_polynomial(3, [1])
    with pytest.raises(ValueError):
        bell_polynomial_direct(-1, [])


def test_bell_over_rationals():
    # exp(sum u_m t^m / m!) coefficient check at a rational point
    u = [Fraction(1, 2), Fraction(-2), Fraction(3, 5)]
    assert bell_polynomial(3, u) == bell_polynomial_direct(3, u)


# -- single-point weights ---------------------------------------------------


def _kinds(k, c):
    return {type(side) for side in lhs_rhs_thm21(6, k, c)}


def test_weight_params_modes():
    # the arithmetic follows the types of (k, c)
    assert _kinds(2, C) == {CPolynomial}
    assert _kinds(2, Fraction(1, 3)) == {Fraction}
    assert _kinds(-1, 0.4 + 0j) == {complex}
    assert _kinds(1.5, 0.2j) == {complex}


def test_weight_params_disk():
    # there is no conditioning disk: |c| near or past 1 evaluates
    for c in (0.95 + 0j, 0.5 + 0.5j, -1.2 + 0j):
        lhs, rhs = lhs_rhs_thm21(12, 1.5, c)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


# -- packed ints --------------------------------------------------------------


@st.composite
def _slots(draw):
    """(size, values) with every |value| < 2^(8 * size - 1), the slot's ends included."""
    size = draw(st.integers(min_value=1, max_value=40))
    half = 1 << 8 * size - 1
    ends = st.sampled_from([-half, -half + 1, -1, 0, 1, half - 1])
    value = st.one_of(ends, st.integers(min_value=-half, max_value=half - 1))
    return size, draw(st.lists(value, min_size=1, max_size=40))


@settings(max_examples=150, deadline=None)
@given(_slots(), st.integers(min_value=-(2**200), max_value=2**200))
def test_pack_and_unpack_are_inverse(slots, above):
    # the packed value is the plain sum of shifted slots, and any int above
    # the read slots, negative ones included, is dropped on the way back
    size, values = slots
    count, bias = len(values), _bias(size, len(values))
    packed = _pack(values, size, bias)
    assert packed == sum(v << 8 * size * k for k, v in enumerate(values))
    assert _unpack(packed, count, size, bias) == values
    assert _unpack(packed + (above << 8 * size * count), count, size, bias) == values

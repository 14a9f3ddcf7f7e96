"""Divisor arithmetic, the c-polynomial ring, complex powers, Bell polynomials."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pie.exact import (
    C,
    CPolynomial,
    bell_polynomial,
    bell_polynomial_direct,
    complex_power,
    divisors,
    fractional_weight,
    sigma_int,
    sigma_zc_exact,
)
from pie.identities import lhs_rhs_thm21

# frozen from a 40-digit re-summation of sum_d d^z c^d over d | 12
SIGMA_ORACLE_Z = complex(1.5, 0.5)
SIGMA_ORACLE_C = complex(0.4, -0.3)
SIGMA_ORACLE_VALUE = complex(0.5705320035297089, -2.027539296014291)

# frozen from a 40-digit evaluation of exp(i ln 2)
TWO_TO_THE_I = complex(0.7692389013639721, 0.6389612763136348)


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
    with pytest.raises(ValueError):
        bell_polynomial(11, list(range(1, 12)))
    with pytest.raises(ValueError):
        bell_polynomial(3, [1])
    with pytest.raises(ValueError):
        bell_polynomial_direct(-1, [])
    assert bell_polynomial(11, list(range(1, 12)), cap=11) is not None


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

"""Acceptance suite: every criterion at its stated range and tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  Exact criteria admit zero tolerance; the numeric criterion uses
relative 1e-9 over its fixed sampling grid.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from pie.exact import C, bell_polynomial
from pie.identities import CheckConfig, IdentityId, check_identity
from pie.involution import verify_pairings
from pie.partitions import count_exact_part_sizes
from pie.series import (
    series_A_euler,
    series_A_quotient,
    series_K_divisor,
    series_K_lambert,
)

import sympy
from test_exact import bell_polynomial_direct


@contextmanager
def criterion(number: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} {label}: FAIL")
        raise
    else:
        elapsed = time.perf_counter() - t0
        print(f"[acceptance] criterion {number:2d} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_signed_smallest_part_counts_divisors():
    with criterion(1, "signed smallest-part sum equals d(n), n<=60"):
        t0 = time.perf_counter()
        rep = check_identity(IdentityId.BS_BASIC, CheckConfig(n_max=60))
        assert rep.passed, rep.first_failure
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_two_variable_weights_exact():
    with criterion(2, "two-variable weighted identity, exact, n<=60, all complex z"):
        t0 = time.perf_counter()
        cfg = CheckConfig(n_max=60, exponents=(0, 1, 2, 3, 4))
        rep = check_identity(IdentityId.BS_ONEVAR, cfg)
        assert rep.passed, rep.first_failure
        assert rep.range["z"] == "all complex"
        assert time.perf_counter() - t0 < 120.0


def test_criterion_03_two_variable_weights_numeric():
    with criterion(3, "two-variable weighted identity, numeric grid of 16"):
        cfg = CheckConfig(
            n_max=30,
            mode="numeric",
            z_grid=(1.5 + 0j, -1 + 0j, -2 + 0j, 0.5 + 0.5j),
            c_grid=(0.4 + 0j, -0.3 + 0j, 0.4 - 0.3j, 0.2 + 0.7j),
            tolerance=1e-9,
        )
        assert len(cfg.z_grid) * len(cfg.c_grid) == 16
        rep = check_identity(IdentityId.BS_ONEVAR, cfg)
        assert rep.passed, rep.first_failure
        assert rep.condition is not None


def test_criterion_04_class_sum_lemma():
    with criterion(4, "class sums detect divisibility, n<=60, all N"):
        rep = check_identity(IdentityId.CLASS_SUM, CheckConfig(n_max=60))
        assert rep.passed, rep.first_failure


def test_criterion_05_involution_properties():
    with criterion(5, "pairing is a parity-reversing class involution, n<=60"):
        # verify_pairings raises AlgorithmFault on any violation, including a
        # j-loop guard overrun and a second case-2 stopping point
        for n in range(1, 61):
            verify_pairings(n, range(1, n + 1))


def test_criterion_06_exponential_generating_functions():
    with criterion(6, "EGF route equality and Bell relation, m<=5, Q=30"):
        t0 = time.perf_counter()
        cfg = CheckConfig(
            m_max=5,
            q_order=30,
            c_exact=(Fraction(1), Fraction(2, 3), Fraction(-1, 2)),
        )
        rep_exp = check_identity(IdentityId.THM_2_2_EXP, cfg)
        rep_bell = check_identity(IdentityId.THM_2_2_BELL, cfg)
        assert rep_exp.passed, rep_exp.first_failure
        assert rep_bell.passed, rep_bell.first_failure
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_binomial_weight_identities():
    with criterion(7, "binomial-weight identities exact, n<=50, k<=3"):
        cfg = CheckConfig(n_max=50, exponents=(0, 1, 2, 3))
        for ident in (
            IdentityId.THM_2_3,
            IdentityId.THM_2_6,
            IdentityId.COR_2_4,
            IdentityId.COR_2_7,
        ):
            rep = check_identity(ident, cfg)
            assert rep.passed, (ident, rep.first_failure)


def test_criterion_08_two_size_count_formula():
    with criterion(8, "two-size partition count formula, n<=200"):
        assert count_exact_part_sizes(6, 2) == 6  # spot value
        rep = check_identity(IdentityId.COR_2_5, CheckConfig(n_max=200))
        assert rep.passed, rep.first_failure


def test_criterion_09_q_series_identities():
    with criterion(9, "q-series identities to order 25"):
        cfg = CheckConfig(q_order=25, k_fold_max=4)
        for ident in (
            IdentityId.ENTRY4,  # symbolic c, plus the c=1 divisor collapse
            IdentityId.UCHIMURA_TRIPLE,
            IdentityId.THM_1_2,
        ):
            rep = check_identity(ident, cfg)
            assert rep.passed, (ident, rep.first_failure)


def test_criterion_10_moment_coefficient_formulas():
    with criterion(10, "moment coefficients match convolutions, m<=4, n<=40"):
        rep = check_identity(IdentityId.DILCHER_CM, CheckConfig(n_max=40))
        assert rep.passed, rep.first_failure


def test_criterion_11_double_constructions_agree():
    with criterion(11, "all internal double constructions agree"):
        assert series_A_quotient(C, 16) == series_A_euler(C, 16)
        for m in range(1, 5):
            assert series_K_divisor(m, C, 30) == series_K_lambert(m, C, 30)
        u = sympy.symbols("u1:9")
        for m in range(0, 9):
            lhs = sympy.expand(bell_polynomial(m, u))
            rhs = sympy.expand(bell_polynomial_direct(m, u))
            assert lhs == rhs

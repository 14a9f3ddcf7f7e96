"""Both sides of thm_2_1, thm_2_3 and thm_2_6 at one (n, k, c), for the tests.

Each side is read from the profile pair the registry compares, so a test at
one point checks the same profiles the checks do.  The types of (k, c)
choose the arithmetic: a nonnegative integer k with an exact c (an int, a
Fraction or the symbolic C) weighs the profile exactly, giving a CPolynomial
at symbolic c; anything else is evaluated in complex doubles by
exact.fractional_weight, the one numeric evaluator.
"""

from fractions import Fraction

from pie.exact import CPolynomial, fractional_weight
from pie.identities import _at, _thm21_profiles, _thm23_profiles, _thm26_profiles


def _sides(profiles, n: int, k, c) -> tuple:
    sides = profiles(n)
    exact_k = isinstance(k, int) and not isinstance(k, bool) and k >= 0
    if exact_k and isinstance(c, (int, Fraction, CPolynomial)):
        return tuple(_at(p, k, c) for p in sides)
    return tuple(fractional_weight(p, k, c)[0] for p in sides)


def lhs_rhs_thm21(n: int, z, c):
    """Window weights against sigma_{z,c}(n): the bs_onevar profiles."""
    return _sides(_thm21_profiles, n, z, c)


def lhs_rhs_thm23(n: int, k, c):
    """The smallest-part power identity: the thm_2_3 profiles."""
    return _sides(_thm23_profiles, n, k, c)


def lhs_rhs_thm26(n: int, k, c):
    """The initial-segment power identity: the thm_2_6 profiles."""
    return _sides(_thm26_profiles, n, k, c)

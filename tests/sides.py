"""Both sides of thm_2_1, thm_2_3 and thm_2_6 at one (n, k, c), for the tests.

Each side is read from the profile pair the registry compares, so a test at
one point checks the same profiles the checks do.  The types of (k, c)
choose the arithmetic: a nonnegative integer k with an exact c (an int, a
Fraction or the symbolic C) weighs the profile exactly, giving a CPolynomial
at symbolic c; anything else is evaluated in complex doubles by
fractional_weight, the one-point form of numeric mode, which the tests hold
the checks' shared power tables to.
"""

from fractions import Fraction

from pie.exact import CPolynomial, _c_powers, _sum_weighed, _weigh, _z_powers
from pie.identities import _thm21_profiles, _thm23_profiles, _thm26_profiles


def fractional_weight(pairs, z: complex, c: complex) -> tuple[complex, float]:
    """sum_e a(e) * e^z * c^e over (e, a(e)) pairs in complex doubles, and
    the sum of the term magnitudes, whose ratio to the value is the
    condition estimate.

    This is the weight operator sending c^e to e^z * c^e, evaluated at c; a
    weight profile and CPolynomial.items() are both such pairs.  At e = 0
    it is the identity for z = 0 and annihilates the term otherwise,
    matching (c * d/dc)^k for integer k.

    It composes the two stages that numeric checks run over power tables
    built once per grid point: _weigh forms a(e) * e^z, and _sum_weighed,
    the one weighed sum, adds (a(e) * e^z) * c^e in the pairs' order.  e^z
    comes from complex_power and c^e from complex(c)**e, so every term, and
    so every sum, is bit-identical however the tables are shared.
    """
    pairs = tuple(pairs)
    top = max((e for e, _a in pairs), default=0)
    return _sum_weighed(_weigh(pairs, _z_powers(z, top)), _c_powers(c, top))


def _sides(profiles, n: int, k, c) -> tuple:
    sides = profiles(n)
    exact_k = isinstance(k, int) and not isinstance(k, bool) and k >= 0
    if exact_k and isinstance(c, (int, Fraction, CPolynomial)):
        return tuple(sum(a * e**k * c**e for e, a in p) for p in sides)
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

"""The shifted-add kernel on rows: the reference for the builds packed in c.

Before a symbolic c was packed into ints, the series layer's shifted-add
kernel also took rows, the tuples of the ints of c^0 .. c^d that exact.py
stores Q[c] in, and applied each factor (1 - x q^k) through exact.py's row
helpers.  That kernel is kept here.  It takes stored numerators and weights
that are ints or rows, mixed freely, since _plus and _times take both.
"""

from pie.exact import _plus, _times


def add_shifted(acc: list, coeffs, shift: int, weight) -> list:
    """Add weight * q^shift * coeffs, truncated at the order of acc; coeffs
    may be acc itself, read as the loop updates it."""
    for i in range(min(len(coeffs), len(acc) - shift)):
        if coeffs[i]:
            acc[shift + i] = _plus(acc[shift + i], _times(weight, coeffs[i]))
    return acc


def times_factor(coeffs: list, w, k: int) -> list:
    """Multiply by (1 - x q^k) of stored weight w."""
    return add_shifted(coeffs, coeffs[: max(len(coeffs) - k, 0)], k, _times(w, -1))


def over_factor(coeffs: list, w, k: int) -> list:
    """Divide by (1 - x q^k) of stored weight w, k >= 1."""
    return add_shifted(coeffs, coeffs, k, w)

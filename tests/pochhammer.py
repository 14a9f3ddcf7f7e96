"""q-Pochhammer products and the A quotient for the tests, built on the row
kernel of tests/row_kernel.py."""

from pie.exact import _times
from pie.series import TruncatedSeries, _split

from row_kernel import as_rows, over_factor, times_factor


def _product(x, ks, order: int) -> TruncatedSeries:
    """prod_{k in ks} (1 - x q^k) for k >= 1, truncated at the given order."""
    p, r = _split(x)
    nums = [1] + [0] * order
    for k in ks:
        times_factor(nums, _times(p, r ** (k - 1)), k)
    return TruncatedSeries._stored(order, as_rows(nums), r)


def pochhammer_infinite(x, order: int, start: int = 1) -> TruncatedSeries:
    """prod_{k >= start} (1 - x q^k) truncated; factors past the order are 1."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    product = _product(x, range(max(start, 1), order + 1), order)
    return product - product.scale(x) if start == 0 else product


def a_quotient(c, order: int) -> TruncatedSeries:
    """(q)_inf / (cq)_inf at c's grade r, one factor at a time, on rows for a
    symbolic c: the unit factors weigh r^k, the factors 1 - c q^k p r^(k-1)."""
    p, r = _split(c)
    nums = [1] + [0] * order
    for k in range(1, order + 1):
        times_factor(nums, r**k, k)
    for k in range(1, order + 1):
        over_factor(nums, _times(p, r ** (k - 1)), k)
    return TruncatedSeries._stored(order, as_rows(nums), r)

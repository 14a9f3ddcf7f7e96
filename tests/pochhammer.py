"""q-Pochhammer products for the tests, built on the series layer's factor kernel."""

from pie.series import TruncatedSeries, _split, _times, _times_factor


def _product(x, ks, order: int) -> TruncatedSeries:
    """prod_{k in ks} (1 - x q^k) for k >= 1, truncated at the given order."""
    p, r = _split(x)
    nums = [1] + [0] * order
    for k in ks:
        _times_factor(nums, _times(p, r ** (k - 1)), k)
    return TruncatedSeries._stored(order, nums, r)


def pochhammer_infinite(x, order: int, start: int = 1) -> TruncatedSeries:
    """prod_{k >= start} (1 - x q^k) truncated; factors past the order are 1."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    product = _product(x, range(max(start, 1), order + 1), order)
    return product - product.scale(x) if start == 0 else product

"""The alternating sums of series.py on rows: the reference for the packed int sum.

Before symbolic entry4 ran on ints packed in c, its running 1/(cq)_n held
rows and every term went through the row kernel that tests/row_kernel.py
keeps.  That construction is kept here, for a c whose numerator p is an int
or a row.
"""

from itertools import accumulate, repeat

from pie.exact import _times
from pie.series import TruncatedSeries, _split

from row_kernel import add_shifted, over_factor


def alternating_sum(x, fold: int, shift, weight, order: int) -> TruncatedSeries:
    """sum_{n>=1} (-1)^(n-1) w_n q^shift(n) / ((1-q^n)^fold (xq)_n), at the
    grade r of x, from the stored weights weight(n) = w_n * r**n of w_n q^n;
    shift(n) >= n."""
    p, r = _split(x)
    acc = [0] * (order + 1)
    inv = [1] + [0] * order
    n = 1
    while shift(n) <= order:
        del inv[order - shift(n) + 1 :]
        body = list(over_factor(inv, _times(p, r ** (n - 1)), n))
        for _ in range(fold):
            over_factor(body, r**n, n)
        sign = (-1) ** (n - 1) * r ** (shift(n) - n)
        add_shifted(acc, body, shift(n), _times(weight(n), sign))
        n += 1
    return TruncatedSeries._stored(order, acc, r)


def entry4_lhs(c, order: int) -> TruncatedSeries:
    """sum_n (-1)^(n-1) c^n q^(n(n+1)/2) / ((1-q^n)(cq)_n), truncated."""
    ppow = list(accumulate(repeat(_split(c)[0], order), _times, initial=1))
    return alternating_sum(c, 1, lambda n: n * (n + 1) // 2, ppow.__getitem__, order)

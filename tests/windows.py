"""The signed (smallest, largest) histogram H_n of D(n), cell by cell, for the tests.

The library keeps only three marginals of H_n (partitions.window_marginals);
this oracle builds every cell by the same (1 - q^l) product walk and reads
the marginals off the cells.
"""

from functools import cache
from itertools import accumulate

# the largest n any test reads, so every read shares one build
CAP = 200


@cache
def signed_window_table(cap: int = CAP) -> tuple[dict[tuple[int, int], int], ...]:
    """table[n][(s, l)] = H_n(s, l) for every n <= cap, nonzero cells only.

    For s < l the middle parts form a distinct subset of (s, l) summing to
    n - s - l, each one flipping the sign, so H_n(s, l) is minus the
    q^(n-s-l) coefficient of prod_{s<j<l} (1 - q^j).
    """
    table: list[dict[tuple[int, int], int]] = [{} for _ in range(cap + 1)]
    for s in range(1, cap + 1):
        table[s][(s, s)] = 1
        poly = [1] + [0] * (cap - 2 * s - 1)
        for l in range(s + 1, cap - s + 1):
            for d, a in enumerate(poly):
                if a:
                    table[s + l + d][(s, l)] = -a
            del poly[-1:]
            for i in range(len(poly) - 1, l - 1, -1):
                poly[i] -= poly[i - l]
    return tuple(table)


def signed_window_counts(n: int) -> dict[tuple[int, int], int]:
    """H_n: each partition in D(n) with smallest part s and largest part l
    adds (-1)^(#parts - 1) to the cell (s, l)."""
    return signed_window_table(max(n, CAP))[n]


def cell_marginals(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The smallest-part row, the class sums and the s * (l - s) moment of H_n."""
    row, diff, moment = [0] * (n + 1), [0] * (n + 2), 0
    for (s, l), h in signed_window_counts(n).items():
        row[s] += h
        # entry N sums the cells with l - s < N <= l
        diff[l - s + 1] += h
        diff[l + 1] -= h
        moment += h * s * (l - s)
    return tuple(row), tuple(accumulate(diff[: n + 1])), moment

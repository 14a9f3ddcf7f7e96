"""Integer partitions, their statistics, and exact counting helpers.

Everything in this module is exact integer arithmetic.  The one walker of
D(n), _distinct_masks, yields the partitions into distinct parts as masks in
lexicographically descending order of their parts, so (n) comes first.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator

# Walking D(n) is exponential in sqrt(n); refuse any n past this.
ENUMERATION_GUARD = 200


class _Value:
    """A frozen record of the fields its init sets, in order, equal only to a
    record of its own class; a mutable one takes object's __setattr__ and
    __delattr__, and __hash__ = None.  Not a dataclass, which loads inspect."""

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(_Value):
    """A partition stored as a nonincreasing tuple of positive parts.

    The empty partition (of 0) is constructible but carries no statistics;
    every statistic accessor rejects it.
    """

    __match_args__ = ("parts",)

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        if parts:
            if parts[-1] < 1:
                raise ValueError(f"parts must be positive integers: {parts}")
            if list(parts) != sorted(parts, reverse=True):
                raise ValueError(f"parts must be nonincreasing: {parts}")
        self.__dict__["parts"] = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def smallest(self) -> int:
        self._require_nonempty()
        return self.parts[-1]

    @property
    def largest(self) -> int:
        self._require_nonempty()
        return self.parts[0]

    @property
    def is_distinct(self) -> bool:
        return len(set(self.parts)) == len(self.parts)

    def _require_nonempty(self) -> None:
        if not self.parts:
            raise ValueError("statistics are undefined on the empty partition")

    def __str__(self) -> str:
        return "+".join(str(a) for a in self.parts) if self.parts else "(empty)"


def _distinct_masks(n: int, cap: int, floor: int = 0, head: int = 0) -> Iterator[int]:
    # masks (bit a set iff a is a part) of the partitions of n into distinct
    # parts in (floor, cap], cap >= 0, ORed with head, parts descending.
    # Depth first, each open level stacked as (mask, remainder, next part to
    # try); a remainder equal to the next part is yielded at once
    if not n:
        yield head
        return
    stack, mask, rem, a = [], head, n, cap if cap < n else n
    while True:
        # the remainder must fit under the sum of the parts in (floor, a], which
        # is at most 0 once a <= floor
        if rem <= (a - floor) * (a + floor + 1) // 2:
            if a == rem:
                yield mask | 1 << a
                a -= 1
            else:
                stack.append((mask, rem, a - 1))
                mask, rem = mask | 1 << a, rem - a
                a = a - 1 if a <= rem else rem
        elif stack:
            mask, rem, a = stack.pop()
        else:
            return


def _parts(mask: int) -> tuple[int, ...]:
    parts = []  # peeled off the top bit, largest first
    while mask:
        parts.append(top := mask.bit_length() - 1)
        mask ^= 1 << top
    return tuple(parts)


def _walked(parts: tuple[int, ...]) -> Partition:
    # a walk yields nonincreasing positive tuples only, so the checks of
    # Partition.__init__ are skipped
    p = object.__new__(Partition)
    p.__dict__["parts"] = parts
    return p


def _require_enumerable(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_GUARD:
        raise ValueError(f"n={n} exceeds the enumeration guard {ENUMERATION_GUARD}")


def _max_distinct_sizes(n: int) -> int:
    # t distinct sizes force a sum of at least 1+2+...+t
    v = 0
    while (v + 1) * (v + 2) // 2 <= n:
        v += 1
    return v


# table builder -> (cap, table): the table serves every n <= cap, or is None
# until the first read after a run declared the cap
_tables: dict = {}


def _table(build, n: int):
    # a read past the cap grows the table to the next power of two from 32,
    # so stepping n up to 200 outside a run builds four tables
    cap, table = _tables.get(build, (-1, None))
    if cap < n:
        cap, table = 1 << max(5, (n - 1).bit_length()), None
    if table is None:
        _tables[build] = cap, (table := build(cap))
    return table


def _size_tables(n_max: int) -> None:
    """Declare a run over n <= n_max: a table that does not reach n_max is
    built exactly to n_max at its first read, so once for the run."""
    for build in (_window_table, _size_cell_table):
        if _tables.get(build, (-1,))[0] < n_max:
            _tables[build] = n_max, None


def _size_cell_table(cap: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # table[n][v-1][l-v] counts the partitions of n with largest part l and v
    # sizes, n <= cap, in one pass over l = 1..cap: row v-1 holds G_v's c^0..c^n
    # coefficients.  The working state f[v][r] counts partitions of r into v
    # sizes below l, so carry[r] = sum_{k>=1} f[v-1][r - k*l] is the count at
    # (l, v) and n = r, zero for r < l + v(v-1)/2.  Rows go top-down: row v-1
    # still holds the sizes below l when row v reads it.
    vmax = _max_distinct_sizes(cap)
    f = [[0] * (cap + 1) for _ in range(vmax + 1)]
    f[0][0] = 1
    table = [[[0] * (n + 1) for _ in range(_max_distinct_sizes(n))] for n in range(cap + 1)]
    for l in range(1, cap + 1):
        for v in range(vmax, 0, -1):
            prev, row = f[v - 1], f[v]
            carry = [0] * (cap + 1)
            for r in range(l + v * (v - 1) // 2, cap + 1):
                s = prev[r - l] + carry[r - l]
                if s:
                    carry[r] = s
                    row[r] += s
                    table[r][v - 1][l - v] = s
    return tuple(tuple(map(tuple, rows)) for rows in table)


def count_exact_part_sizes(n: int, t: int) -> int:
    """Number of partitions of n with exactly t distinct part sizes.

    G_t at c = 1, the sum of its row (see size_rows); scales to n in the
    hundreds, far beyond what enumeration can reach.
    count_exact_part_sizes(n, 1) equals the divisor count d(n).
    """
    rows = size_rows(n)
    if t < 1:
        raise ValueError("t must be positive")
    return sum(rows[t - 1]) if t <= len(rows) else 0


def size_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """G_1, ..., G_vmax at n, each as its coefficients of c^0..c^n.

    G_v = sum_l cnt(l, v) * c^(l-v), where cnt(l, v) counts the partitions
    of n with largest part l and v distinct part sizes, the only statistics
    of a partition that the sum-over-P(n) sides read.  Built for every n up
    to the table cap by one pass of the size-count DP, cached.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _table(_size_cell_table, n)[n]


def _window_table(cap: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    # table[n] = (row, sums, moment) for every n <= cap: the three marginals of
    # H_n(s, l), the signed count of D(n) by smallest part s and largest part l.
    # For s < l the middle parts form a distinct subset of (s, l) summing to
    # n - s - l, each one flipping the sign, so H_n(s, l) is minus the
    # q^(n-s-l) coefficient of prod_{s<j<l} (1 - q^j).  The product for
    # (s, l + 1) is the one for (s, l) times (1 - q^l), truncated at the
    # largest degree any n <= cap still reads.  Each H_n(s, l) adds to row[s],
    # to the class sums of N in (l - s, l] through a difference array, and
    # s * (l - s) times itself to the moment.
    rows = [[0] * (n + 1) for n in range(cap + 1)]
    diffs = [[0] * (n + 2) for n in range(cap + 1)]
    moments = [0] * (cap + 1)
    for s in range(1, cap + 1):
        rows[s][s] = diffs[s][1] = 1
        diffs[s][s + 1] = -1
        poly = [1] + [0] * (cap - 2 * s - 1)
        for l in range(s + 1, cap - s + 1):
            low, high, weight = l - s + 1, l + 1, s * (l - s)
            for n, a in enumerate(poly, s + l):
                if a:
                    rows[n][s] -= a
                    diff = diffs[n]
                    diff[low] -= a
                    diff[high] += a
                    moments[n] -= a * weight
            del poly[-1:]
            for i in range(len(poly) - 1, l - 1, -1):
                poly[i] -= poly[i - l]
    return tuple(
        (tuple(row), tuple(accumulate(diff[: n + 1])), moment)
        for n, (row, diff, moment) in enumerate(zip(rows, diffs, moments))
    )


def window_marginals(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The three signed sums over D(n) that the D(n) sides read.

    Each distinct-part partition of n with smallest part s and largest part
    l carries the sign (-1)^(#parts - 1).  Returned: the smallest-part row
    (entry s = 0..n sums the signs with that smallest part), the class sums
    (entry N = 0..n sums the signs in the window class C(N), l - s < N <= l)
    and the moment, the sum of sign * s * (l - s).  Built for every n up to
    the table cap in one integer pass, cached; the (s, l) histogram itself
    is never stored.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _table(_window_table, n)[n]


def class_sums(n: int) -> tuple[int, ...]:
    """Entry N is the signed sum over D(n) in the window class C(N), N = 0..n."""
    return window_marginals(n)[1]


def class_sum(n: int, N: int) -> int:
    """Signed count sum over D(n) within C(N): 1 when N | n, else 0."""
    if not 1 <= N <= n:
        raise ValueError("need 1 <= N <= n")
    return class_sums(n)[N]

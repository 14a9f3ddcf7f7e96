"""Every partition of n, and those with distinct parts, for the tests.

The library walks D(n) only as masks, in chunks spliced from a table of
small remainders (partitions._distinct_chunks); this oracle walks all of
P(n) as part tuples and finds D(n) by filtering that walk, so it shares no
code or table with the mask walker.  Both enumerations run in
lexicographically descending order of the parts: (n) first, (1, ..., 1) last.
"""

from functools import cache
from typing import Iterator

from pie.partitions import Partition, _walked


def _descending_parts(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    # parts <= cap; depth first, each open level stacked as (remainder, next
    # part to try), and a remainder left for parts of 1 is yielded as ones
    buf, stack = [], []
    rem, a = n, cap if cap < n else n
    while True:
        if not rem:
            yield tuple(buf)
        elif a > 1:
            stack.append((rem, a - 1))
            buf.append(a)
            rem -= a
            if rem < a:
                a = rem
            continue
        elif a == 1:
            yield (*buf, *(1,) * rem)
        if not stack:
            return
        rem, a = stack.pop()
        buf.pop()


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once; n = 0 yields the empty one."""
    return map(_walked, _descending_parts(n, n))


@cache
def enumerate_distinct(n: int) -> tuple[Partition, ...]:
    """The partitions of n with pairwise distinct parts, filtered from the
    walk of P(n); cached, since that walk takes about a second at n = 60."""
    walk = _descending_parts(n, n)
    return tuple(_walked(parts) for parts in walk if len(set(parts)) == len(parts))

"""Enumeration, statistics, and counting of partitions."""

import copy
import pickle
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import _descending_parts, enumerate_distinct, enumerate_partitions
from pie.involution import _mask, class_members, verify_pairings
from pie.partitions import (
    _TAIL,
    Partition,
    _distinct_chunks,
    _parts,
    _size_cell_table,
    _size_tables,
    _window_table,
    count_exact_part_sizes,
    size_rows,
    window_marginals,
)
from size_cells import cells_of, rows_of
from windows import cell_marginals, signed_window_counts

# hand-checked initial segment of the partition counts
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# -- test-local oracles ------------------------------------------------------


@dataclass(frozen=True)
class PartitionStats:
    """The four statistics every weighted identity consumes."""

    smallest: int
    largest: int
    num_parts: int
    num_distinct: int


def stats(p: Partition) -> PartitionStats:
    """Return (smallest, largest, #parts, #distinct sizes) of a nonempty partition."""
    return PartitionStats(p.smallest, p.largest, len(p.parts), len(set(p.parts)))


_PCOUNTS: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence, exact for any n >= 0.

    Serves as the independent oracle for the enumerators.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    P = _PCOUNTS
    while len(P) <= n:
        m = len(P)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * P[m - g1]
            g2 = g1 + k
            if g2 <= m:
                total += sign * P[m - g2]
            k += 1
        P.append(total)
    return P[n]


def test_partitions_of_one():
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]


def test_partitions_of_three():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_distinct_of_three():
    assert [p.parts for p in enumerate_distinct(3)] == [(3,), (2, 1)]


def test_distinct_of_six():
    assert [p.parts for p in enumerate_distinct(6)] == [
        (6,),
        (5, 1),
        (4, 2),
        (3, 2, 1),
    ]


def test_distinct_of_one():
    assert [p.parts for p in enumerate_distinct(1)] == [(1,)]


def test_partition_count_small():
    assert [partition_count(n) for n in range(len(P_SMALL))] == P_SMALL


def test_partition_count_rejects_negative():
    with pytest.raises(ValueError):
        partition_count(-1)


@pytest.mark.parametrize("n", range(0, 41))
def test_enumeration_count_matches_recurrence(n):
    assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_stream_count_n60():
    # ~1e6 items; the recurrence is the independent oracle
    assert partition_count(60) == 966467
    assert sum(1 for _ in enumerate_partitions(60)) == 966467


@pytest.mark.parametrize("n", range(1, 41))
def test_distinct_equals_filtered_enumeration(n):
    # the library's mask walk of D(n) against the filtered walk of P(n)
    assert list(map(_parts, _masks(n, n))) == [p.parts for p in enumerate_distinct(n)]


def _masks(n: int, cap: int, floor: int = 0, head: int = 0):
    # the walk's chunks, flattened into one stream of masks
    return chain.from_iterable(_distinct_chunks(n, cap, floor, head))


@cache
def _recursive_parts(n: int, cap: int) -> list[tuple[int, ...]]:
    # the partitions of n into parts <= cap, largest part first, by recursion
    if not n:
        return [()]
    return [(a, *rest) for a in range(min(n, cap), 0, -1) for rest in _recursive_parts(n - a, a)]


@pytest.mark.parametrize("n", range(0, 31))
def test_walk_against_recursive_enumeration(n):
    for cap in range(n + 2):
        assert list(_descending_parts(n, cap)) == _recursive_parts(n, cap), cap
    # the walkers build each Partition unchecked: equal to the checked one
    walked = list(enumerate_partitions(n))
    assert walked == [Partition(parts) for parts in _recursive_parts(n, n)]
    assert all(type(p) is Partition for p in walked)


@pytest.mark.parametrize("n", [*range(0, 31), 33, 37, 40])
def test_distinct_walk_against_filtered_enumeration(n):
    # the mask walk against an independent list in the same order, built by
    # the other walker: the partitions of n with distinct parts in
    # (floor, cap], head in front.  Floors reach past the table bound, so
    # every tail row is compared whole and filtered by each floor
    distinct = [p.parts for p in enumerate_partitions(n) if p.is_distinct]
    for cap in range(n + 2):
        for floor in range(_TAIL + 2):
            window = [parts for parts in distinct if all(floor < a <= cap for a in parts)]
            for head in ((), (99,)):
                walked = list(map(_parts, _masks(n, cap, floor, _mask(head))))
                assert walked == [head + parts for parts in window], (cap, floor, head)


def test_distinct_walk_counts_match_the_product_dp():
    # |D(n)| is the q^n coefficient of prod_{k >= 1} (1 + q^k)
    counts = [1] + [0] * 60
    for k in range(1, 61):
        for m in range(60, k - 1, -1):
            counts[m] += counts[m - k]
    assert [sum(map(len, _distinct_chunks(n, n))) for n in range(61)] == counts
    assert counts[60] == 10880


@pytest.mark.parametrize("n", range(0, 31))
def test_parts_of_a_walked_mask(n):
    # peeling the top bit agrees with a scan over every bit position, and
    # the parts rebuild the mask
    for mask in _masks(n, n):
        scanned = tuple(a for a in range(mask.bit_length() - 1, 0, -1) if mask >> a & 1)
        assert _parts(mask) == scanned
        assert _mask(_parts(mask)) == mask


@pytest.mark.parametrize("n", [5, 12, 19, 26])
def test_enumeration_is_lexicographically_descending(n):
    seen = [p.parts for p in enumerate_partitions(n)]
    assert seen == sorted(seen, reverse=True)
    assert len(set(seen)) == len(seen)


def test_empty_partition_only_from_zero():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert [p.parts for p in enumerate_distinct(0)] == [()]
    with pytest.raises(ValueError):
        stats(Partition(()))


def test_enumeration_guard():
    # both walks of D(n) in the library stop at n = 200, with no override
    with pytest.raises(ValueError, match="exceeds the enumeration guard 200"):
        next(class_members(201, 1))
    with pytest.raises(ValueError, match="exceeds the enumeration guard 200"):
        verify_pairings(201, [1])
    assert next(class_members(200, 1)).parts == (200,)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_value_semantics():
    # a frozen record of its parts: equal only to a Partition, hashed and
    # shown by the parts, and never assigned to
    p = Partition([4, 2])
    assert type(p.parts) is tuple and p.parts == (4, 2)
    assert p == Partition((4, 2)) == Partition(parts=iter((4, 2)))
    assert hash(p) == hash(Partition((4, 2))) == hash(((4, 2),))
    assert p != Partition((4, 1)) and p != (4, 2) and p != [4, 2]

    class Sub(Partition):
        pass

    assert p != Sub((4, 2)) and Sub((4, 2)) != p
    assert repr(p) == "Partition(parts=(4, 2))"
    assert repr(Partition(())) == "Partition(parts=())"
    assert repr(Sub((1,))).endswith(".Sub(parts=(1,))")
    with pytest.raises(AttributeError, match="cannot assign to field 'parts'"):
        p.parts = (6,)
    with pytest.raises(AttributeError, match="cannot delete field 'parts'"):
        del p.parts
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        p.extra = 1
    assert p.parts == (4, 2)
    assert Partition.__match_args__ == ("parts",)
    match p:
        case Partition((largest, *rest)):
            assert (largest, rest) == (4, [2])
        case _:
            pytest.fail("Partition did not match its positional pattern")
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.copy(p) == copy.deepcopy(p) == p
    with pytest.raises(ValueError, match=re.escape("parts must be positive integers: (3, 0)")):
        Partition([3, 0])
    with pytest.raises(ValueError, match=re.escape("parts must be nonincreasing: (1, 2)")):
        Partition(iter([1, 2]))


def test_stats_examples():
    assert stats(Partition((3, 2, 1))) == stats(Partition((3, 2, 1)))
    s = stats(Partition((3, 2, 1)))
    assert (s.smallest, s.largest, s.num_parts, s.num_distinct) == (1, 3, 3, 3)
    s = stats(Partition((2, 2, 1, 1)))
    assert (s.smallest, s.largest, s.num_parts, s.num_distinct) == (1, 2, 4, 2)
    s = stats(Partition((4, 4, 4)))
    assert (s.smallest, s.largest, s.num_parts, s.num_distinct) == (4, 4, 3, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=26))
def test_emitted_partitions_are_valid(n):
    for p in enumerate_partitions(n):
        parts = p.parts
        assert sum(parts) == n
        assert all(a >= 1 for a in parts)
        assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))
        assert len(set(parts)) <= p.largest
        assert len(set(parts)) <= len(parts)


def test_count_exact_part_sizes_examples():
    assert count_exact_part_sizes(6, 1) == 4  # the divisors 6, 3+3, 2+2+2, 1*6
    assert count_exact_part_sizes(6, 2) == 6
    assert count_exact_part_sizes(6, 3) == 1  # 3+2+1


def test_count_exact_part_sizes_triangular_cutoff():
    for n in range(1, 30):
        t = 1
        while t * (t + 1) // 2 <= n + 6:
            if t * (t + 1) // 2 > n:
                assert count_exact_part_sizes(n, t) == 0
            t += 1


@pytest.mark.parametrize("n", range(1, 31))
def test_size_counts_sum_to_partition_count(n):
    total = sum(count_exact_part_sizes(n, t) for t in range(1, n + 1))
    assert total == partition_count(n)


@pytest.mark.parametrize("n", range(1, 23))
def test_count_exact_part_sizes_against_enumeration(n):
    brute = Counter(len(set(p.parts)) for p in enumerate_partitions(n))
    for t in range(1, n + 1):
        assert count_exact_part_sizes(n, t) == brute.get(t, 0)


def test_count_exact_part_sizes_validation():
    with pytest.raises(ValueError):
        count_exact_part_sizes(0, 1)
    with pytest.raises(ValueError):
        count_exact_part_sizes(5, 0)


@pytest.mark.parametrize("n", range(1, 26))
def test_profile_by_largest_and_sizes_against_enumeration(n):
    brute = Counter((p.largest, len(set(p.parts))) for p in enumerate_partitions(n))
    assert size_rows(n) == rows_of(brute, n)


@cache
def _bounded_count(n: int, k: int) -> int:
    """Partitions of n with every part <= k: either no part k, or one k removed."""
    if n == 0:
        return 1
    if k == 0:
        return 0
    return _bounded_count(n, k - 1) + (_bounded_count(n - k, k) if n >= k else 0)


def _count_with_largest(n: int, largest: int) -> int:
    # removing one largest part leaves a partition of n - l with parts <= l
    return _bounded_count(n - largest, largest)


# every n <= 200 crosses the table caps 32, 64, 128 and 256
@pytest.mark.parametrize("n", range(1, 201))
def test_size_cells_full_range(n):
    counts = cells_of(size_rows(n))
    assert all(cnt > 0 for cnt in counts.values())
    assert sum(counts.values()) == partition_count(n)
    divisor_count = sum(1 for d in range(1, n + 1) if n % d == 0)
    assert sum(cnt for (_largest, v), cnt in counts.items() if v == 1) == divisor_count
    by_largest = Counter()
    by_sizes = Counter()
    for (largest, v), cnt in counts.items():
        by_largest[largest] += cnt
        by_sizes[v] += cnt
    for largest in range(1, n + 1):
        assert by_largest[largest] == _count_with_largest(n, largest)
    for t in range(1, n + 1):
        assert count_exact_part_sizes(n, t) == by_sizes[t]


def euler_coefficient(n: int) -> int:
    """The q^n coefficient of (q)_inf by Euler's pentagonal number theorem:
    (-1)^k at n = k(3k - 1)/2 and n = k(3k + 1)/2, and 0 elsewhere."""
    k = 0
    while k * (3 * k - 1) // 2 <= n:
        if n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            return (-1) ** k
        k += 1
    return 0


# every n <= 200 crosses the table caps 32, 64, 128 and 256
@pytest.mark.parametrize("n", range(1, 201))
def test_signed_windows_full_range(n):
    # the signs (-1)^(#parts - 1) over D(n) sum to -e(n), and the one-part
    # partition (n) is the only member of the cell (n, n)
    cells = signed_window_counts(n)
    assert sum(cells.values()) == -euler_coefficient(n)
    assert cells[n, n] == 1
    # the marginals built without cells are the oracle's, read off its cells
    assert window_marginals(n) == cell_marginals(n)


def test_cell_tables_do_not_depend_on_the_cap():
    # a run builds its tables at its own n_max, so any two caps must agree
    for small, large in ((64, 128), (40, 64), (130, 200)):
        rows_s, rows_l = _size_cell_table(small), _size_cell_table(large)
        windows_s, windows_l = _window_table(small), _window_table(large)
        assert len(rows_s) == len(windows_s) == small + 1
        for n in range(small + 1):
            assert rows_s[n] == rows_l[n]
            assert windows_s[n] == windows_l[n] == cell_marginals(n)


def test_stepping_n_outside_a_run_grows_the_tables_geometrically(table_builds):
    for n in range(1, 201):
        window_marginals(n)
        size_rows(n)
        count_exact_part_sizes(n, 2)
    assert table_builds == {"cells": [32, 64, 128, 256], "windows": [32, 64, 128, 256]}


def test_a_declared_run_builds_each_table_once_at_its_n_max(table_builds):
    _size_tables(130)
    assert table_builds == {"cells": [], "windows": []}  # built at first read
    for n in range(1, 131):
        window_marginals(n)
        size_rows(n)
    _size_tables(100)  # the cached tables reach it
    window_marginals(100)
    assert table_builds == {"cells": [130], "windows": [130]}
    # past the run's n_max, growth is geometric again
    window_marginals(131)
    assert table_builds == {"cells": [130], "windows": [130, 256]}


def test_cell_maps_are_read_only():
    groups = size_rows(5)
    assert type(groups) is type(groups[0]) is tuple
    with pytest.raises(TypeError):
        groups[0][4] = 2
    row, sums, moment = marginals = window_marginals(5)
    assert type(marginals) is type(row) is type(sums) is tuple
    assert type(moment) is int


def test_count_exact_part_sizes_checks_n_first():
    with pytest.raises(ValueError, match="n must be positive"):
        count_exact_part_sizes(0, 0)


@pytest.mark.parametrize("n", range(1, 61))
def test_distinct_stats_matches_enumeration(n):
    # the oracle's cells and the marginals against a signed tally of D(n)
    brute = Counter()
    row, sums, moment = [0] * (n + 1), [0] * (n + 1), 0
    for p in enumerate_distinct(n):
        s, l = p.smallest, p.largest
        sign = 1 if len(p.parts) % 2 else -1
        brute[(s, l)] += sign
        row[s] += sign
        for N in range(l - s + 1, l + 1):
            sums[N] += sign
        moment += sign * s * (l - s)
    assert signed_window_counts(n) == {key: h for key, h in brute.items() if h}
    assert window_marginals(n) == (tuple(row), tuple(sums), moment)
    # class sums over l >= N > l - s detect divisibility
    for N in range(1, n + 1):
        assert sums[N] == (1 if n % N == 0 else 0)


def test_partition_str():
    assert str(Partition((4, 2))) == "4+2"
    assert str(Partition(())) == "(empty)"

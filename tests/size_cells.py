"""The size-count table as (largest part, #sizes) cells, for tests.

pie keeps the counts cnt(l, v) of the partitions of n with largest part l
and v distinct part sizes only as the rows G_v = sum_l cnt(l, v) c^(l-v)
of partitions.size_rows(n).  These two helpers move between that form and
a {(l, v): cnt} dict of the nonzero cells, so that tests can state and skew
the counts cell by cell.
"""


def cells_of(rows) -> dict[tuple[int, int], int]:
    """The nonzero cells of the G_v rows: row v - 1, entry e is cell (e + v, v)."""
    return {(e + v, v): cnt for v, row in enumerate(rows, 1) for e, cnt in enumerate(row) if cnt}


def rows_of(cells: dict[tuple[int, int], int], n: int) -> tuple[tuple[int, ...], ...]:
    """The G_v rows at n, each of length n + 1, for v = 1 up to the largest v
    among the cells."""
    out = [[0] * (n + 1) for _ in range(max(v for _l, v in cells))]
    for (largest, v), cnt in cells.items():
        out[v - 1][largest - v] += cnt
    return tuple(map(tuple, out))

"""The sign-reversing pairing on distinct-part partitions in a window class.

For a modulus N, the class C(N) holds the distinct-part partitions with
largest >= N > largest - smallest.  Inside the class at most one part can be
divisible by N (two multiples would differ by at least N, wider than the
window).  The pairing:

  case 1  - a part j*N exists and there is at least one other part: remove
            it, then j times add N to the currently smallest part.
  case 2  - no part is divisible by N: repeatedly subtract N from the
            currently largest part; after the j-th subtraction, with
            T = j*N, stop as soon as  largest - N < T < smallest + N
            (strict, evaluated on the working multiset before inserting),
            then insert T as a new part.
  fixed   - the single-part partition (n) with N | n pairs with nothing.

Both directions run the same generic min/max loop; the closed forms for
small j are kept as a cross-check oracle.  Any departure from the proven
regime (nonpositive intermediate, duplicate output part, guard overrun,
output outside the class) raises AlgorithmFault rather than being repaired.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import ceil
from typing import Iterator

from .errors import AlgorithmFault
from .partitions import Partition, enumerate_distinct, signed_window_counts

CASE_REMOVE = "case1"
CASE_INSERT = "case2"
CASE_FIXED = "fixed"


@dataclass(frozen=True)
class PairingTrace:
    """Full step record of one application of the pairing."""

    input: Partition
    modulus: int
    case: str
    steps: tuple[tuple[tuple[int, ...], str], ...]
    removed_or_inserted: int | None
    output: Partition | None

    @property
    def is_fixed(self) -> bool:
        return self.case == CASE_FIXED


def in_class(p: Partition, N: int) -> bool:
    """Membership in C(N): largest >= N > largest - smallest."""
    _require_distinct(p)
    if N < 1:
        raise ValueError("N must be positive")
    return p.largest >= N > p.largest - p.smallest


def membership_count(p: Partition) -> int:
    """How many N put p inside C(N); scans and must equal the smallest part."""
    _require_distinct(p)
    lo, hi = p.smallest, p.largest
    return sum(1 for N in range(1, hi + 1) if hi >= N > hi - lo)


def pair(p: Partition, N: int) -> PairingTrace:
    """Apply the pairing to p within C(N) and return the full trace."""
    _require_distinct(p)
    if not in_class(p, N):
        raise ValueError(f"{p} is not in the class C({N})")
    n = p.n
    parts = p.parts
    multiples = [a for a in parts if a % N == 0]
    if len(multiples) > 1:
        raise AlgorithmFault(
            f"window property violated: {p} has several parts divisible by {N}"
        )

    if len(parts) == 1 and multiples:
        return PairingTrace(p, N, CASE_FIXED, (), None, None)

    steps: list[tuple[tuple[int, ...], str]] = []

    if multiples:
        removed = multiples[0]
        j = removed // N
        working = sorted(a for a in parts if a != removed)
        steps.append((tuple(working), f"remove {removed}"))
        for _ in range(j):
            low = working.pop(0)
            insort(working, low + N)
            steps.append((tuple(working), f"add {N} to smallest part {low}"))
        out = _validated_output(working, p, N, n)
        return PairingTrace(p, N, CASE_REMOVE, tuple(steps), removed, out)

    working = sorted(parts)
    guard = ceil(n / N)
    j = 0
    while True:
        j += 1
        if j > guard:
            raise AlgorithmFault(
                f"subtraction loop exceeded guard {guard} for {p}, N={N}"
            )
        high = working.pop()
        if high - N <= 0:
            raise AlgorithmFault(
                f"nonpositive intermediate part {high - N} for {p}, N={N}"
            )
        insort(working, high - N)
        total = j * N
        steps.append((tuple(working), f"subtract {N} from largest part {high}"))
        if working[-1] - N < total < working[0] + N:
            break
    if total in working:
        raise AlgorithmFault(
            f"inserted part {total} duplicates an existing part for {p}, N={N}"
        )
    insort(working, total)
    steps.append((tuple(working), f"insert {total}"))
    out = _validated_output(working, p, N, n)
    return PairingTrace(p, N, CASE_INSERT, tuple(steps), total, out)


def case1_closed_form(p: Partition, N: int) -> Partition:
    """Closed-form image for case 1 when the removed part is j*N with
    j <= (number of parts) - 1: the other j smallest parts each gain N once.

    Cross-check oracle for the generic loop; outside its regime (j too
    large) it is not applicable and raises ValueError.
    """
    _require_distinct(p)
    if not in_class(p, N):
        raise ValueError(f"{p} is not in the class C({N})")
    multiples = [a for a in p.parts if a % N == 0]
    if not multiples or len(p.parts) < 2:
        raise ValueError("closed form applies to case 1 inputs only")
    removed = multiples[0]
    j = removed // N
    rest = sorted(a for a in p.parts if a != removed)
    if j > len(rest):
        raise ValueError("closed form needs j <= number of remaining parts")
    bumped = [a + N for a in rest[:j]] + rest[j:]
    return Partition(tuple(sorted(bumped, reverse=True)))


def stopping_candidates(p: Partition, N: int) -> list[int]:
    """All j for which the case-2 stopping window holds, scanning as far as
    the subtraction sequence keeps every part positive.

    The pairing uses the first such j; the proof needs it to be unique, and
    the test suite asserts exactly one candidate throughout the desk range.
    """
    _require_distinct(p)
    if not in_class(p, N):
        raise ValueError(f"{p} is not in the class C({N})")
    if any(a % N == 0 for a in p.parts):
        raise ValueError("stopping scan applies to case 2 inputs only")
    working = sorted(p.parts)
    hits = []
    j = 0
    while True:
        j += 1
        high = working.pop()
        if high - N <= 0:
            break
        insort(working, high - N)
        total = j * N
        if working[-1] - N < total < working[0] + N:
            hits.append(j)
    return hits


def class_sum(n: int, N: int) -> int:
    """Signed count sum over D(n) within C(N): 1 when N | n, else 0.

    Read off the signed (smallest, largest) histogram, independent of the
    pairing, which enumerates the class members themselves.
    """
    if not 1 <= N <= n:
        raise ValueError("need 1 <= N <= n")
    return sum(
        h for (smallest, largest), h in signed_window_counts(n).items()
        if largest >= N > largest - smallest
    )


def class_members(n: int, N: int) -> Iterator[Partition]:
    """Members of D(n) in C(N), in enumeration order."""
    for p in enumerate_distinct(n):
        if p.largest >= N > p.largest - p.smallest:
            yield p


def verify_pairing_class(n: int, N: int) -> dict[str, int]:
    """Check the pairing on one class: parity reversal, closure, involution,
    and the predicted fixed points.  Raises AlgorithmFault on any violation.
    """
    members = 0
    fixed = 0
    for p in class_members(n, N):
        members += 1
        tr = pair(p, N)
        if tr.is_fixed:
            fixed += 1
            if len(p.parts) != 1 or n % N != 0:
                raise AlgorithmFault(f"unexpected fixed point {p} for N={N}")
            continue
        out = tr.output
        assert out is not None
        if abs(out.num_parts - p.num_parts) != 1:
            raise AlgorithmFault(f"parity not reversed: {p} -> {out}, N={N}")
        if out.n != n or not out.is_distinct or not in_class(out, N):
            raise AlgorithmFault(f"output left the class: {p} -> {out}, N={N}")
        back = pair(out, N)
        if back.is_fixed or back.output != p:
            raise AlgorithmFault(f"not an involution at {p}, N={N}")
    expected_fixed = 1 if n % N == 0 else 0
    if fixed != expected_fixed:
        raise AlgorithmFault(
            f"fixed point count {fixed} != {expected_fixed} for n={n}, N={N}"
        )
    return {"members": members, "fixed": fixed}


def trace_lines(trace: PairingTrace) -> list[str]:
    """Line-oriented text rendering of a trace, one step per line."""
    lines = [f"input {trace.input} N={trace.modulus} case={trace.case}"]
    for snapshot, action in trace.steps:
        shown = "+".join(str(a) for a in reversed(snapshot))
        lines.append(f"step {action}: working {shown}")
    if trace.is_fixed:
        lines.append("fixed")
    else:
        lines.append(f"output {trace.output}")
    return lines


def _require_distinct(p: Partition) -> None:
    if not p.parts:
        raise ValueError("the empty partition has no class membership")
    if not p.is_distinct:
        raise ValueError(f"{p} does not have distinct parts")


def _validated_output(working: list[int], p: Partition, N: int, n: int) -> Partition:
    if len(set(working)) != len(working):
        raise AlgorithmFault(f"duplicate part in output {working} for {p}, N={N}")
    if sum(working) != n:
        raise AlgorithmFault(f"output {working} does not partition {n}")
    out = Partition(tuple(sorted(working, reverse=True)))
    if not in_class(out, N):
        raise AlgorithmFault(f"output {out} left C({N}) (input {p})")
    return out

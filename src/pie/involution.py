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

One kernel, _pair_masks, runs the pairing over a batch of members of one
class, on masks in which bit a is set iff a is a part: the multiple of N is
mask & multiples[N], each add or subtraction of N moves one bit, and both
ends of the window are read with bit_length.  A case-1 image is walked back
through case 2 in the same pass and must return to its member.  The case-2
walk runs every subtraction while the parts stay positive, so the walk that
finds the stopping j also shows it is the only j in the window.  A
partition with smallest part s and largest part l lies in exactly the
classes N in (l - s, l], so one class walk of masks, which class_members
shares, visits every asked class of verify_pairings: its largest part runs
from n down to the least asked N, and its other parts stay above l minus
the greatest, which for N = 1..n is all of D(n).  Parts become tuples only
in pair, which runs the kernel on a batch of one, in class_members and in
fault messages.  verify_pairings hands the kernel only the case-1 members
and fixed points of each largest part and N: as each case-1 image takes
case 2 and walks back, equal case-1 and case-2 counts per N make every
case-2 member the image of a case-1 member, checked both ways.
Any departure from the proven regime (an input outside C(N) or with parts
not distinct or not summing to n, a walk past the multiples of N up to n, a
nonpositive intermediate, an inserted part already present, an output
outside the class, a second stopping point, a case-2 member left over)
raises AlgorithmFault rather than being repaired.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterable, Iterator

from .errors import AlgorithmFault
from .partitions import Partition, _Value, _distinct_masks, _parts, _require_enumerable, _walked

CASE_REMOVE = "case1"
CASE_INSERT = "case2"
CASE_FIXED = "fixed"


class PairingTrace(_Value):
    """Full step record of one application of the pairing."""

    __match_args__ = ("input", "modulus", "case", "steps", "removed_or_inserted", "output")

    def __init__(self, input: Partition, modulus: int, case: str, steps: tuple,
                 removed_or_inserted: int | None, output: Partition | None) -> None:
        fields = input, modulus, case, steps, removed_or_inserted, output
        self.__dict__.update(zip(self.__match_args__, fields))

    @property
    def is_fixed(self) -> bool:
        return self.case == CASE_FIXED


def in_class(p: Partition, N: int) -> bool:
    """Membership in C(N): largest >= N > largest - smallest."""
    _require_distinct(p)
    if N < 1:
        raise ValueError("N must be positive")
    return p.largest >= N > p.largest - p.smallest


def pair(p: Partition, N: int) -> PairingTrace:
    """Apply the pairing to p within C(N) and return the full trace."""
    if not in_class(p, N):
        raise ValueError(f"{p} is not in the class C({N})")
    case, moved, out, steps = _pair_parts(p.parts, N, p.n)
    return PairingTrace(p, N, case, steps, moved, None if out is None else Partition(out))


def _pair_parts(parts: tuple[int, ...], N: int, n: int):
    # the kernel on a batch of one: the descending parts of a partition of n,
    # with the output as descending parts and the steps' working parts ascending
    mask = _mask(parts)
    if sum(parts) != n or mask.bit_count() != len(parts):
        raise AlgorithmFault(f"{_show(parts)} is not a distinct-part partition of {n}, N={N}")
    steps: list[tuple[int, str]] = []
    _, _, (case, moved, out) = _pair_masks((mask,), N, _multiples(N, n), steps)
    steps = tuple((_parts(m)[::-1], action) for m, action in steps)
    return case, moved, None if out is None else _parts(out), steps


def _pair_masks(masks, N: int, multiples: int, steps: list | None = None):
    """The pairing kernel on masks of members of C(N), multiples masking the
    multiples of N up to their n.  Counts the fixed points and the case-1
    members whose image is in C(N), has one part fewer, takes case 2 and
    walks back to them.  Returns both counts and the last member's (case,
    part moved, image), and appends each step to a member's image (working
    mask, action) to steps when it is a list."""
    case1 = fixed = 0
    last = None
    for mask in masks:
        top = mask.bit_length() - 1
        if not top >= N > top - (mask & -mask).bit_length() + 1:
            raise _fault(mask, N, f"input outside C({N})")
        hit = mask & multiples  # at most one part in the window
        if hit == mask:
            if mask & (mask - 1):
                raise _fault(mask, N, "unexpected fixed point")
            fixed += 1
            last = CASE_FIXED, None, None
            continue
        work = mask ^ hit
        if hit:
            moved = hit.bit_length() - 1
            if steps is not None:
                steps.append((work, f"remove {moved}"))
            for _ in range(moved // N):
                low = work & -work
                work += (low << N) - low
                if steps is not None:
                    steps.append((work, f"add {N} to smallest part {low.bit_length() - 1}"))
            last, start, record = (CASE_REMOVE, moved, work), work, None
            top = work.bit_length() - 1
            # an invariant guard no input reaches: in a window narrower than N
            # each add moves the smallest part s to s + N, a free bit above the
            # rest, so the window stays narrower than N and the top exceeds N
            if not top >= N > top - (work & -work).bit_length() + 1:
                raise _fault(mask, N, f"output {_show(_parts(work))} left C({N})")
            if work.bit_count() != mask.bit_count() - 1:
                raise _fault(mask, N, f"parity not reversed by the image {_show(_parts(work))}")
            if work & multiples:
                raise _fault(work, N, f"the image of {_show(_parts(mask))} takes {CASE_REMOVE}")
        else:
            start, record = mask, steps
        # the case-2 walk from start, every subtraction: the first j in the
        # window is the stopping point, and any later one disproves its
        # uniqueness.  T = j*N is the j-th set bit of multiples, taken off
        # left; running out of them passes the guard n
        kept, left = 0, multiples
        while top > N:
            if not left:
                raise _fault(start, N, f"subtraction loop ran past the multiples of {N}")
            work += (1 << (top - N)) - (1 << top)
            T = left & -left
            left ^= T
            if not kept and record is not None:
                record.append((work, f"subtract {N} from largest part {top}"))
            top = work.bit_length() - 1
            if top - N < T.bit_length() - 1 < (work & -work).bit_length() - 1 + N:
                if kept:
                    raise _fault(start, N, "the stopping window admits a second j")
                kept, bit = work, T
        if not kept:
            raise _fault(start, N, f"nonpositive intermediate part {top - N}")
        work = kept | bit
        if hit:
            if work != mask:
                raise _fault(mask, N, f"not an involution: the image {_show(_parts(start))} "
                                      f"walks back to {_show(_parts(work))}")
            case1 += 1
            continue
        moved = bit.bit_length() - 1
        if work == kept:
            raise _fault(mask, N, f"inserted part {moved} duplicates an existing part")
        if steps is not None:
            steps.append((work, f"insert {moved}"))
        top = work.bit_length() - 1
        if not top >= N > top - (work & -work).bit_length() + 1:
            raise _fault(mask, N, f"output {_show(_parts(work))} left C({N})")
        last = CASE_INSERT, moved, work
    return case1, fixed, last


def _mask(parts: tuple[int, ...]) -> int:
    return sum(map((1).__lshift__, parts))


def _multiples(N: int, n: int) -> int:
    return sum(1 << a for a in range(N, n + 1, N))


def class_members(n: int, N: int) -> Iterator[Partition]:
    """Members of D(n) in C(N), in enumeration order.  Only the class is
    walked: below each largest part l >= N the other parts exceed l - N."""
    _require_enumerable(n)
    if n == 0:
        raise ValueError("the empty partition has no class membership")
    if N < 1:
        raise ValueError("N must be positive")
    yield from map(_walked, map(_parts, _class_walk(n, N, N)))


def _class_walk(n: int, low: int, high: int) -> Iterator[int]:
    # the masks of the members of C(low) .. C(high) in D(n), each once:
    # largest part l from n down to low, the other parts above l - high
    return chain.from_iterable(
        _distinct_masks(n - largest, largest - 1, max(0, largest - high), 1 << largest)
        for largest in range(n, low - 1, -1)
    )


def verify_pairings(n: int, moduli: Iterable[int]) -> dict[int, dict[str, int]]:
    """Check the pairing on the classes C(N), N in moduli, in one walk over
    their members: parity reversal, closure, involution, a unique case-2
    stopping point and the predicted fixed points.  Raises AlgorithmFault on any
    violation; returns {N: {"members": ..., "fixed": ...}} in moduli order.
    A case-2 member is only counted: the module docstring gives the
    counting argument that covers it.  The only state kept per partition is
    the kernel's batches, of one largest part at a time.
    """
    tallies = {N: [0, 0, 0] for N in moduli}  # case-1 members, case-2 members, fixed points
    if not all(1 <= N <= n for N in tallies):
        raise ValueError("need 1 <= N <= n for every modulus")
    _require_enumerable(n)
    if not tallies:
        return {}
    multiples = {N: _multiples(N, n) for N in tallies}
    for top, masks in groupby(_class_walk(n, min(tallies), max(tallies)), int.bit_length):
        largest = top - 1
        batches = {N: [] for N in tallies if N <= largest}
        for mask in masks:
            for N in range(largest - (mask & -mask).bit_length() + 2, largest + 1):
                batch = batches.get(N)
                if batch is None:
                    continue
                # the parts lie in a window that holds at most one multiple of N
                if mask & multiples[N]:
                    batch.append(mask)
                else:
                    tallies[N][1] += 1
        for N, batch in batches.items():
            if not batch:
                continue
            case1, fixed, _ = _pair_masks(batch, N, multiples[N])
            tallies[N][0] += case1
            tallies[N][2] += fixed
    for N, (case1, case2, fixed) in tallies.items():
        if fixed != (expected := 1 if n % N == 0 else 0):
            raise AlgorithmFault(f"fixed point count {fixed} != {expected} for n={n}, N={N}")
        if case2 != case1:
            raise AlgorithmFault(
                f"{case2} case-2 members != {case1} case-1 members for n={n}, N={N}"
            )
    return {
        N: {"members": case1 + case2 + fixed, "fixed": fixed}
        for N, (case1, case2, fixed) in tallies.items()
    }


def trace_lines(trace: PairingTrace) -> list[str]:
    """Line-oriented text rendering of a trace, one step per line."""
    lines = [f"input {trace.input} N={trace.modulus} case={trace.case}"]
    for snapshot, action in trace.steps:
        lines.append(f"step {action}: working {_show(reversed(snapshot))}")
    lines.append("fixed" if trace.is_fixed else f"output {trace.output}")
    return lines


def _require_distinct(p: Partition) -> None:
    if not p.parts:
        raise ValueError("the empty partition has no class membership")
    if not p.is_distinct:
        raise ValueError(f"{p} does not have distinct parts")


def _show(parts) -> str:
    return "+".join(map(str, parts))


def _fault(mask: int, N: int, what: str) -> AlgorithmFault:
    return AlgorithmFault(f"{what} for {_show(_parts(mask))}, N={N}")

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

One kernel, _pair_mask, runs both directions on masks, in which bit a is
set iff a is a part: the multiple of N is mask & multiples[N], each add or
subtraction of N moves one bit, and both ends of the window are read with
bit_length.  The case-2 walk runs every subtraction while the parts stay
positive, so the one walk that finds the stopping j also shows it is the
only j in the window.  A partition with smallest part s and largest part l
lies in exactly the classes N in (l - s, l], so one class walk of masks,
which class_members shares, visits every asked class of verify_pairings:
its largest part runs from n down to the least asked N, and its other
parts stay above l minus the greatest, which for N = 1..n is all of D(n).
Parts become tuples only in pair, which records the steps, in
class_members and in fault messages.
verify_pairings runs the kernel only from case-1 members and fixed points:
each case-1 image must take case 2 and map back, so the pairing sends case
1 one-to-one into case 2, and equal case-1 and case-2 counts per N then
make every case-2 member the image of a case-1 member, whose pairing was
checked both ways.
Any departure from the proven regime (an input outside C(N) or with parts
not distinct or not summing to n, a walk past the multiples of N up to n, a
nonpositive intermediate, an inserted part already present, an output
outside the class, a second stopping point, a case-2 member left over)
raises AlgorithmFault rather than being repaired.
"""

from __future__ import annotations

from itertools import chain
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
    # _pair_mask on the descending parts of a partition of n, with the output
    # as descending parts and the steps' working parts ascending
    mask = _mask(parts)
    if sum(parts) != n or mask.bit_count() != len(parts):
        raise AlgorithmFault(f"{_show(parts)} is not a distinct-part partition of {n}, N={N}")
    steps: list[tuple[int, str]] = []
    case, moved, out = _pair_mask(mask, N, _multiples(N, n), steps)
    steps = tuple((_parts(m)[::-1], action) for m, action in steps)
    return case, moved, None if out is None else _parts(out), steps


def _pair_mask(mask: int, N: int, multiples: int, steps: list | None = None):
    """The pairing kernel on the mask of a member of C(N); multiples masks the
    multiples of N up to the n it partitions.  Returns (case, part removed or
    inserted, output mask), or (CASE_FIXED, None, None), and appends each
    step's working mask and action to steps when it is a list.  The parts
    stay in a window narrower than N, so a part moved by N lands on a free bit.
    """
    top = mask.bit_length() - 1
    if not top >= N > top - (mask & -mask).bit_length() + 1:
        raise _fault(mask, N, f"input outside C({N})")
    hit = mask & multiples  # at most one part in the window
    if hit == mask:
        return CASE_FIXED, None, None
    work = mask ^ hit
    if hit:
        case, moved = CASE_REMOVE, hit.bit_length() - 1
        if steps is not None:
            steps.append((work, f"remove {moved}"))
        for _ in range(moved // N):
            low = work & -work
            work += (low << N) - low
            if steps is not None:
                steps.append((work, f"add {N} to smallest part {low.bit_length() - 1}"))
    else:
        # walk every subtraction: the first j in the window is the stopping
        # point, and any later one disproves its uniqueness.  T = j*N is the
        # j-th set bit of multiples; running out of them passes the guard n
        case, kept = CASE_INSERT, 0
        while top > N:
            if not multiples:
                raise _fault(mask, N, f"subtraction loop ran past the multiples of {N}")
            work += (1 << (top - N)) - (1 << top)
            T = multiples & -multiples
            multiples ^= T
            if not kept and steps is not None:
                steps.append((work, f"subtract {N} from largest part {top}"))
            top = work.bit_length() - 1
            if top - N < T.bit_length() - 1 < (work & -work).bit_length() - 1 + N:
                if kept:
                    raise _fault(mask, N, "the stopping window admits a second j")
                kept, bit = work, T
        if not kept:
            raise _fault(mask, N, f"nonpositive intermediate part {top - N}")
        moved, work = bit.bit_length() - 1, kept | bit
        if work == kept:
            raise _fault(mask, N, f"inserted part {moved} duplicates an existing part")
        if steps is not None:
            steps.append((work, f"insert {moved}"))
    top = work.bit_length() - 1
    if not top >= N > top - (work & -work).bit_length() + 1:
        raise _fault(mask, N, f"output {_show(_parts(work))} left C({N})")
    return case, moved, work


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
    counting argument that covers it.  No state is kept per partition.
    """
    tallies = {N: [0, 0, 0] for N in moduli}  # case-1 members, case-2 members, fixed points
    if not all(1 <= N <= n for N in tallies):
        raise ValueError("need 1 <= N <= n for every modulus")
    _require_enumerable(n)
    if not tallies:
        return {}
    multiples = {N: _multiples(N, n) for N in tallies}
    for mask in _class_walk(n, min(tallies), max(tallies)):
        largest, smallest = mask.bit_length() - 1, (mask & -mask).bit_length() - 1
        size = mask.bit_count()
        for N in range(largest - smallest + 1, largest + 1):
            tally = tallies.get(N)
            if tally is None:
                continue
            # the parts lie in a window that holds at most one multiple of N
            if not mask & multiples[N]:
                tally[1] += 1
                continue
            _, _, image = _pair_mask(mask, N, multiples[N])
            if image is None:
                tally[2] += 1
                if size != 1 or n % N != 0:
                    raise _fault(mask, N, "unexpected fixed point")
                continue
            tally[0] += 1
            # the kernel checked the image's class; it sums to n by construction
            if abs(image.bit_count() - size) != 1:
                raise _fault(mask, N, f"parity not reversed by the image {_show(_parts(image))}")
            case, _, back = _pair_mask(image, N, multiples[N])
            if case != CASE_INSERT:
                raise _fault(image, N, f"the image of {_show(_parts(mask))} takes {case}")
            if back != mask:
                # the member passes both checks of the back image, so they
                # run only here, to name what a wrong back image got wrong
                parts = _parts(back)
                if abs(len(parts) - image.bit_count()) != 1:
                    raise _fault(image, N, f"parity not reversed by the image {_show(parts)}")
                if not (sum(parts) == n and parts[0] >= N > parts[0] - parts[-1]):
                    raise _fault(image, N, f"the image {_show(parts)} left the class")
                raise _fault(mask, N, f"not an involution: the image is {_show(_parts(image))}")
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

"""The window-class pairing: membership, traces, closure, the class-sum lemma."""

import copy
import hashlib
import pickle
import re
from bisect import insort
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import enumerate_distinct, enumerate_partitions
from pie import involution
from pie.cli import main
from pie.errors import AlgorithmFault
from pie.involution import (
    PairingTrace,
    _pair_parts,
    class_members,
    in_class,
    pair,
    trace_lines,
    verify_pairings,
)
from pie.partitions import Partition, _parts, class_sum, class_sums
from windows import signed_window_counts


def P(*parts):
    return Partition(tuple(parts))


def membership_count(p: Partition) -> int:
    """How many N put p inside C(N), by a scan of in_class."""
    return sum(1 for N in range(1, p.largest + 1) if in_class(p, N))


def case1_closed_form(p: Partition, N: int) -> Partition:
    """Closed-form image for case 1 when the removed part is j*N with
    j <= (number of parts) - 1: the other j smallest parts each gain N once.

    Cross-check oracle for the pairing loop; outside its regime (j too
    large) it is not applicable and raises ValueError.
    """
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
    the pairing kernel raises AlgorithmFault on a case-2 input with a second j.
    """
    if not in_class(p, N):
        raise ValueError(f"{p} is not in the class C({N})")
    if any(a % N == 0 for a in p.parts):
        raise ValueError("stopping scan applies to case 2 inputs only")
    working = sorted(p.parts)
    js = []
    j = 0
    while working[-1] > N:
        j += 1
        insort(working, working.pop() - N)
        if working[-1] - N < j * N < working[0] + N:
            js.append(j)
    return js


def reference_pair(parts, N):
    """The pairing as a plain min/max loop on an ascending list, without
    checks: (case, part removed or inserted, steps, descending output)."""
    multiples = [a for a in parts if a % N == 0]
    if multiples and len(parts) == 1:
        return "fixed", None, (), None
    steps = []
    if multiples:
        moved = multiples[0]
        working = sorted(a for a in parts if a != moved)
        steps.append((tuple(working), f"remove {moved}"))
        for _ in range(moved // N):
            low = working.pop(0)
            insort(working, low + N)
            steps.append((tuple(working), f"add {N} to smallest part {low}"))
        return "case1", moved, tuple(steps), tuple(sorted(working, reverse=True))
    working = sorted(parts)
    j = 0
    while True:
        j += 1
        high = working.pop()
        insort(working, high - N)
        steps.append((tuple(working), f"subtract {N} from largest part {high}"))
        if working[-1] - N < j * N < working[0] + N:
            break
    insort(working, j * N)
    steps.append((tuple(working), f"insert {j * N}"))
    return "case2", j * N, tuple(steps), tuple(sorted(working, reverse=True))


# -- membership ----------------------------------------------------------------


def test_in_class_examples():
    assert in_class(P(6), 4) is True
    assert in_class(P(5, 1), 3) is False
    assert in_class(P(4, 2), 4) is True


def test_in_class_rejects_bad_input():
    with pytest.raises(ValueError):
        in_class(P(2, 2), 1)
    with pytest.raises(ValueError):
        in_class(P(4, 2), 0)
    with pytest.raises(ValueError):
        in_class(Partition(()), 1)


def test_membership_count_examples():
    assert membership_count(P(3, 2, 1)) == 1
    assert membership_count(P(9)) == 9
    assert membership_count(P(4, 2)) == 2


@pytest.mark.parametrize("n", range(1, 41))
def test_membership_count_equals_smallest_part(n):
    for p in enumerate_distinct(n):
        assert membership_count(p) == p.smallest


# -- hand traces -----------------------------------------------------------------


def test_pair_case1_hand_trace():
    tr = pair(P(4, 2), 4)
    assert tr.case == "case1"
    assert tr.removed_or_inserted == 4
    assert tr.output == P(6)


def test_pair_case2_hand_trace():
    tr = pair(P(6), 4)
    assert tr.case == "case2"
    assert tr.removed_or_inserted == 4
    assert tr.output == P(4, 2)
    # one subtraction then the insert
    assert [snap for snap, _ in tr.steps] == [(2,), (2, 4)]


def test_pair_case2_then_case1_inverse_pair():
    tr = pair(P(4, 2), 3)
    assert tr.case == "case2"
    assert tr.output == P(3, 2, 1)
    back = pair(P(3, 2, 1), 3)
    assert back.case == "case1"
    assert back.output == P(4, 2)


def test_pair_fixed_point():
    tr = pair(P(6), 2)
    assert tr.is_fixed
    assert tr.output is None
    assert tr.steps == ()


def test_pair_rejects_outside_class():
    with pytest.raises(ValueError):
        pair(P(5, 1), 3)


def test_trace_lines_format():
    lines = trace_lines(pair(P(4, 2), 3))
    assert lines[0] == "input 4+2 N=3 case=case2"
    assert lines[-1] == "output 3+2+1"
    assert all(line.startswith("step ") for line in lines[1:-1])
    fixed_lines = trace_lines(pair(P(6), 2))
    assert fixed_lines[-1] == "fixed"


# -- closed-form oracle -----------------------------------------------------------


def test_case1_closed_form_examples():
    assert case1_closed_form(P(4, 2), 4) == P(6)
    assert case1_closed_form(P(3, 2, 1), 3) == P(4, 2)


def test_case1_closed_form_regime():
    with pytest.raises(ValueError):
        case1_closed_form(P(6), 3)  # no second part
    with pytest.raises(ValueError):
        case1_closed_form(P(8, 7), 2)  # j=4 exceeds remaining parts


@pytest.mark.parametrize("n", range(2, 31))
def test_case1_loop_matches_closed_form(n):
    for p in enumerate_distinct(n):
        lo, hi = p.parts[-1], p.parts[0]
        for N in range(hi - lo + 1, hi + 1):
            multiples = [a for a in p.parts if a % N == 0]
            if not multiples or len(p.parts) < 2:
                continue
            j = multiples[0] // N
            if j > len(p.parts) - 1:
                continue
            assert pair(p, N).output == case1_closed_form(p, N)


# -- involution properties ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 31))
def test_pairing_properties_sweep(n):
    verify_pairings(n, range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 31))
def test_verify_pairings_counts_match_class_members(n):
    counts = verify_pairings(n, range(1, n + 1))
    assert list(counts) == list(range(1, n + 1))
    for N, tally in counts.items():
        members = list(class_members(n, N))
        fixed = sum(1 for p in members if len(p.parts) == 1 and n % N == 0)
        assert tally == {"members": len(members), "fixed": fixed}
    # a subset of the moduli gets the same counts from its own pass
    assert verify_pairings(n, (n, 1)) == {n: counts[n], 1: counts[1]}


@pytest.mark.parametrize("n", range(1, 41))
def test_single_modulus_walk_matches_the_full_sweep(n):
    # a walk over one class C(N) counts what the walk over all of D(n) does
    counts = verify_pairings(n, range(1, n + 1))
    for N in range(1, n + 1):
        assert verify_pairings(n, (N,)) == {N: counts[N]}


def test_verify_pairings_rejects_moduli_outside_range():
    with pytest.raises(ValueError):
        verify_pairings(6, (0,))
    with pytest.raises(ValueError):
        verify_pairings(6, (3, 7))


def test_verify_pairings_keeps_the_enumeration_guard():
    with pytest.raises(ValueError, match="exceeds the enumeration guard 200"):
        verify_pairings(201, (1,))
    with pytest.raises(ValueError, match="exceeds the enumeration guard 200"):
        verify_pairings(201, ())
    assert verify_pairings(0, ()) == {}


@pytest.mark.parametrize("n", range(1, 31))
def test_class_walk_yields_the_old_loops_tuples(n):
    # D(n) from the other walker, in the order the old loops kept: largest
    # part l from n down to low, the other parts above l - high
    members = [p.parts for p in enumerate_partitions(n) if p.is_distinct]
    for low in range(1, n + 1):
        for high in range(low, n + 1):
            walked = list(map(_parts, involution._class_walk(n, low, high)))
            # the union of C(low) .. C(high), each member once: the window
            # (l - s, l] of a member meets [low, high]
            union = [p for p in members if p[0] >= low and p[0] - p[-1] < high]
            assert walked == union, (low, high)
        in_low = [p for p in members if p[0] >= low > p[0] - p[-1]]
        assert [p.parts for p in class_members(n, low)] == in_low


def test_uncovered_case2_member_faults_the_sweep(monkeypatch):
    # without 4+2, C(3) of 6 holds one case-1 member (3+2+1, whose image is
    # 4+2) and no case-2 member, so the count no longer covers case 2
    def dropped(n, cap, floor=0, head=0):
        return (mask for mask in walk(n, cap, floor, head) if mask != 1 << 4 | 1 << 2)

    walk = involution._distinct_masks
    monkeypatch.setattr(involution, "_distinct_masks", dropped)
    message = "0 case-2 members != 1 case-1 members for n=6, N=3"
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        verify_pairings(6, range(1, 7))


def test_sweep_runs_the_kernel_from_case1_members_and_fixed_points(monkeypatch):
    # every case-1 member and fixed point enters the kernel once per N, and
    # a case-2 member never
    n = 30
    entered, batches = Counter(), []

    def counted(masks, N, multiples, steps=None):
        batches.append((N, {mask.bit_length() for mask in masks}))
        entered.update((mask, N) for mask in masks)
        return kernel(masks, N, multiples, steps)

    kernel = involution._pair_masks
    monkeypatch.setattr(involution, "_pair_masks", counted)
    verify_pairings(n, range(1, n + 1))
    expected = Counter()
    for p in enumerate_distinct(n):
        for N in range(p.largest - p.smallest + 1, p.largest + 1):
            if any(a % N == 0 for a in p.parts):
                expected[involution._mask(p.parts), N] += 1
    assert entered == expected
    assert sum(expected.values()) == 361 + 8  # 361 case-1 members, 8 divisors of 30
    # one batch per largest part l and N: never empty, never two l in one
    assert all(len(tops) == 1 for _, tops in batches)
    assert len({(N, *tops) for N, tops in batches}) == len(batches)


# the trace lines of every pairing in D(n), n <= 20, each followed by the
# part moved: their count and sha256 pin the rendered traces
TRACE_LINES_N20 = 4836
TRACE_DIGEST_N20 = "8824b242c05de2a0b2567d590a84d76551d4a97a47ded5db57d88ed3b237e905"


def test_pair_outputs_and_traces_unchanged():
    lines = []
    for n in range(1, 21):
        for p in enumerate_distinct(n):
            for N in range(p.largest - p.smallest + 1, p.largest + 1):
                tr = pair(p, N)
                case, moved, steps, out = reference_pair(p.parts, N)
                assert (tr.case, tr.removed_or_inserted, tr.steps) == (case, moved, steps)
                assert tr.output == (None if out is None else Partition(out))
                lines += trace_lines(tr)
                lines.append(f"moved {tr.removed_or_inserted}")
    assert len(lines) == TRACE_LINES_N20
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TRACE_DIGEST_N20


@pytest.mark.parametrize("n", range(1, 31))
def test_mask_kernel_matches_the_reference_both_ways(n):
    # every membership of D(n), its image and the image's image, each as a
    # batch of one; then each class as one batch, counted
    counts = {}
    for p in enumerate_distinct(n):
        mask = involution._mask(p.parts)
        for N in range(p.largest - p.smallest + 1, p.largest + 1):
            multiples, steps = involution._multiples(N, n), []
            *tallied, (case, moved, image) = involution._pair_masks([mask], N, multiples, steps)
            ref_case, ref_moved, ref_steps, ref_image = reference_pair(p.parts, N)
            assert (case, moved) == (ref_case, ref_moved)
            assert tallied == [case == "case1", case == "fixed"]
            assert tuple((_parts(m)[::-1], a) for m, a in steps) == ref_steps
            counts.setdefault(N, Counter())[case] += 1
            if ref_image is None:
                assert image is None
                continue
            assert _parts(image) == ref_image
            back_case, back_moved, _, _ = reference_pair(ref_image, N)
            assert involution._pair_masks([image], N, multiples)[2] == (back_case, back_moved, mask)
    for N, cases in counts.items():
        members = [involution._mask(p.parts) for p in class_members(n, N)]
        case1, fixed, _ = involution._pair_masks(members, N, involution._multiples(N, n))
        assert (case1, fixed) == (cases["case1"], cases["fixed"]) and cases["case2"] == case1


@lru_cache(maxsize=None)
def _distinct_sets(m, lo, hi):
    # the sets of distinct integers in lo..hi that sum to m
    if m == 0:
        return 1
    if hi < lo or m < lo:
        return 0
    return _distinct_sets(m, lo, hi - 1) + _distinct_sets(m - hi, lo, hi - 1) * (hi <= m)


def _class_size(n, N):
    # |C(N)| in D(n), counted by largest part l >= N and smallest part s > l - N
    # without walking a partition: the one-part (n), and below l >= N the
    # smallest s with distinct parts between them
    return int(n >= N) + sum(
        _distinct_sets(n - l - s, s + 1, l - 1)
        for l in range(N, n)
        for s in range(max(1, l - N + 1), min(l, n - l + 1))
    )


@pytest.mark.parametrize("n", range(1, 41))
def test_sweep_tallies_match_a_recursion(n):
    # members and fixed points per N, from a count that shares no walk with
    # the sweep; the one fixed point is (n) itself, when N divides n
    expected = {
        N: {"members": _class_size(n, N), "fixed": int(n % N == 0)} for N in range(1, n + 1)
    }
    assert verify_pairings(n, range(1, n + 1)) == expected


@pytest.mark.parametrize(
    "parts, N, n, message",
    [
        ((2, 1), 1, 3, "input outside C(1) for 2+1, N=1"),
        ((7,), 2, 2, "7 is not a distinct-part partition of 2, N=2"),
        ((1,), 2, 1, "input outside C(2) for 1, N=2"),
        ((3, 1), 2, 4, "input outside C(2) for 3+1, N=2"),
        ((4, 2), 4, 7, "4+2 is not a distinct-part partition of 7, N=4"),
        ((5, 1), 2, 6, "input outside C(2) for 5+1, N=2"),
        ((2, 2), 3, 4, "2+2 is not a distinct-part partition of 4, N=3"),
    ],
    ids=[
        "several-multiples", "guard", "nonpositive", "duplicate-output", "wrong-sum", "outside",
        "repeated-part",
    ],
)
def test_pair_parts_faults_outside_the_regime(parts, N, n, message):
    # the kernel takes only members of C(N), and its tuple entry only
    # distinct parts of n, so the inputs that once reached the kernel's later
    # checks (several multiples of N, a guard overrun, a nonpositive
    # intermediate, a duplicate or outside output) fault on entry; a repeated
    # part would otherwise carry into another mask
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        _pair_parts(parts, N, n)


def _skewed_multiples(monkeypatch, skew):
    # the multiples of N that the kernel reads, with the bits of skew[N] flipped
    def skewed(N, n):
        return multiples(N, n) ^ skew.get(N, 0)

    multiples = involution._multiples
    monkeypatch.setattr(involution, "_multiples", skewed)


@pytest.mark.parametrize(
    "parts, N, skew, message",
    [
        ((3, 2, 1), 3, 1 << 3, "nonpositive intermediate part 0 for 3+2+1, N=3"),
        ((6,), 3, 1 << 6, "inserted part 3 duplicates an existing part for 6, N=3"),
        ((4,), 3, 1 << 2, "output 2+1 left C(3) for 4, N=3"),
        ((7,), 2, 1 << 4 | 1 << 6, "subtraction loop ran past the multiples of 2 for 7, N=2"),
        ((4, 2), 4, 1 << 2, "unexpected fixed point for 4+2, N=4"),
    ],
    ids=["nonpositive", "duplicate-part", "outside", "guard", "two-part-fixed-point"],
)
def test_kernel_checks_reached_through_skewed_multiples(monkeypatch, parts, N, skew, message):
    # no member of C(N) reaches these checks with the true multiples: a
    # member of case 1 sent down the case-2 walk ends with no stopping point
    # or inserts a part it holds, a stray 2 stops the walk below N, a table
    # cut at 2 runs out before the walk does, and a stray 2 makes both parts
    # of 4+2 multiples of 4
    _skewed_multiples(monkeypatch, {N: skew})
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        pair(Partition(parts), N)


@pytest.mark.parametrize(
    "skew, message",
    [
        (1 << 0, "not an involution: the image 4+2 walks back to 2+1+0 for 3+2+1, N=3"),
        (1 << 1, "parity not reversed by the image 5 for 3+2+1, N=3"),
        (1 << 2, "not an involution: the image 4 walks back to 2+1 for 4+2, N=3"),
    ],
    ids=["in-class", "same-parity", "wrong-sum"],
)
def test_wrong_image_faults_the_sweep(monkeypatch, capsys, skew, message):
    # a stray multiple 0 of 3 leaves 3+2+1's image 4+2 in the class but
    # walks it back to a part 0; a stray 1 takes two parts off 3+2+1, so its
    # image 5 keeps its parity; a stray 2 sends 4+2 to 4, which sums to 4 and
    # walks back to 2+1
    _skewed_multiples(monkeypatch, {3: skew})
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        verify_pairings(6, range(1, 7))
    assert main(["involution", "--n", "6", "--N-divisor", "1", "--sweep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "algorithm fault" in captured.err


def test_pair_walks_a_case1_image_back(monkeypatch):
    # a stray multiple 0 of 3 leaves 3+2+1's image 4+2 in the class but
    # inserts a part 0 on the walk back: pair() checks the round trip too
    _skewed_multiples(monkeypatch, {3: 1})
    message = "not an involution: the image 4+2 walks back to 2+1+0 for 3+2+1, N=3"
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        pair(P(3, 2, 1), 3)


def test_pairing_trace_value_semantics():
    # a frozen record of its six fields: equal only to a PairingTrace,
    # hashed and shown by the fields in order, and never assigned to
    trace = pair(P(4, 2), 3)
    steps = (((1, 2), "subtract 3 from largest part 4"), ((1, 2, 3), "insert 3"))
    fields = (P(4, 2), 3, "case2", steps, 3, P(3, 2, 1))
    names = ("input", "modulus", "case", "steps", "removed_or_inserted", "output")
    assert PairingTrace.__match_args__ == names
    assert tuple(getattr(trace, name) for name in names) == fields
    assert trace == pair(P(4, 2), 3) == PairingTrace(*fields)
    assert trace == PairingTrace(**dict(zip(names, fields)))
    assert hash(trace) == hash(fields)
    assert trace != fields and trace != pair(P(3, 2, 1), 3)
    assert repr(trace) == (
        "PairingTrace(input=Partition(parts=(4, 2)), modulus=3, case='case2', "
        f"steps={steps!r}, removed_or_inserted=3, output=Partition(parts=(3, 2, 1)))"
    )
    fixed = pair(P(6), 3)
    assert (fixed.is_fixed, fixed.removed_or_inserted, fixed.output) == (True, None, None)
    assert hash(fixed) == hash((P(6), 3, "fixed", (), None, None))
    with pytest.raises(AttributeError, match="cannot assign to field 'case'"):
        trace.case = "case1"
    with pytest.raises(AttributeError, match="cannot delete field 'output'"):
        del trace.output
    match trace:
        case PairingTrace(Partition(parts), N, case, _, moved, Partition(image)):
            assert (parts, N, case, moved, image) == ((4, 2), 3, "case2", 3, (3, 2, 1))
        case _:
            pytest.fail("PairingTrace did not match its positional pattern")
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert copy.deepcopy(trace) == trace


def test_pairing_high_quotient_case():
    # removed part is 4 times the modulus; the loop passes over every part twice
    p = P(8, 7)
    tr = pair(p, 2)
    assert tr.case == "case1"
    assert tr.output == P(15)
    assert pair(P(15), 2).output == p


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.data())
def test_pairing_is_involution_on_samples(n, data):
    members = list(enumerate_distinct(n))
    p = data.draw(st.sampled_from(members))
    N = data.draw(st.integers(min_value=p.largest - p.smallest + 1, max_value=p.largest))
    tr = pair(p, N)
    if tr.is_fixed:
        assert len(p.parts) == 1 and n % N == 0
    else:
        assert pair(tr.output, N).output == p
        assert abs(len(tr.output.parts) - len(p.parts)) == 1


# -- stopping window ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 46))
def test_stopping_window_admits_exactly_one_j(n):
    for p in enumerate_distinct(n):
        lo, hi = p.parts[-1], p.parts[0]
        for N in range(hi - lo + 1, hi + 1):
            if any(a % N == 0 for a in p.parts):
                continue
            assert len(stopping_candidates(p, N)) == 1, (p.parts, N)


@pytest.fixture
def stray_multiple(monkeypatch):
    # the multiples of 3 gain a stray 2, so T runs 2, 3, 6, ...: the walk of
    # 5+4 (or of 7) meets the window at T = 2 and again at T = 3
    _skewed_multiples(monkeypatch, {3: 1 << 2})


@pytest.mark.usefixtures("stray_multiple")
def test_second_stopping_point_faults_the_sweep(capsys):
    message = "the stopping window admits a second j for 7, N=3"
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        verify_pairings(7, range(1, 8))
    assert main(["involution", "--n", "7", "--N-divisor", "1", "--sweep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "second j" in captured.err


@pytest.mark.usefixtures("stray_multiple")
def test_second_stopping_point_faults_the_kernel():
    message = "the stopping window admits a second j for 5+4, N=3"
    with pytest.raises(AlgorithmFault, match=re.escape(message)):
        pair(P(5, 4), 3)


def test_stopping_scan_rejects_case1_input():
    with pytest.raises(ValueError):
        stopping_candidates(P(4, 2), 4)


# -- class sums ---------------------------------------------------------------------


def test_class_sum_examples():
    assert class_sum(6, 2) == 1
    assert class_sum(6, 4) == 0
    assert class_sum(6, 5) == 0


def test_class_sum_validation():
    with pytest.raises(ValueError):
        class_sum(6, 0)
    with pytest.raises(ValueError):
        class_sum(6, 7)


@pytest.mark.parametrize("n", range(1, 31))
def test_class_sum_detects_divisibility(n):
    for N in range(1, n + 1):
        assert class_sum(n, N) == (1 if n % N == 0 else 0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 12, 45])
def test_class_sums_match_a_window_scan(n):
    # the difference array against a direct scan of every histogram cell
    scan = [
        sum(h for (s, l), h in signed_window_counts(n).items() if l >= N > l - s)
        for N in range(n + 1)
    ]
    assert class_sums(n) == tuple(scan)


@pytest.mark.parametrize("n", range(1, 31))
def test_class_members_match_enumerate_then_filter(n):
    for N in range(1, n + 1):
        expected = [p for p in enumerate_distinct(n) if p.largest >= N > p.largest - p.smallest]
        assert list(class_members(n, N)) == expected


@pytest.mark.parametrize("N", [1, 7, 25, 50])
def test_class_members_walk_matches_enumerate_then_filter_at_50(N):
    expected = [p for p in enumerate_distinct(50) if p.largest >= N > p.largest - p.smallest]
    assert list(class_members(50, N)) == expected


def test_class_members_rejects_nonpositive_modulus():
    for N in (0, -3):
        with pytest.raises(ValueError, match="N must be positive"):
            list(class_members(6, N))


def test_class_members_rejects_n_outside_enumerable_range():
    for n in (0, -1, 201):
        with pytest.raises(ValueError):
            list(class_members(n, 1))


def test_class_members_of_six_modulus_three():
    members = [p.parts for p in class_members(6, 3)]
    assert members == [(6,), (4, 2), (3, 2, 1)]


def test_unique_fixed_point_when_modulus_divides():
    fixed = [p for p in class_members(12, 3) if pair(p, 3).is_fixed]
    assert fixed == [P(12)]
    fixed = [p for p in class_members(12, 5) if pair(p, 5).is_fixed]
    assert fixed == []

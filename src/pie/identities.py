"""Registry of identity checkers with exact and numeric modes.

Every identity in scope has a closed tag; check_identity dispatches a tag to
its checker and returns a machine-readable IdentityReport.  Each weighted
side is an exact integer weight profile at n (see the weight profiles
section).  exact._once is the one memo, its store living exactly as long as
a run: every check's build, each profile at each n, the one build of A, K_m
and M_m per (c, m_max, q_order) that both parts of thm_2_2 read, K_1, M_1
and entry4's sides at c = 1, and the numeric power tables.  The bell part
takes every Y_m from one pass of the Bell recurrence.  Every read of the
divisor counts d(m) but bs_int's sigma_int(0, n) goes through one table,
_divisor_counts.

An exact checker declares the range it covers and a search.  Every search
is the one first-failure search _first: it walks a grid of points, in
order, and stops at the first point where the checker's mismatch function
finds a difference; the failure record is that point merged with the
difference.  The profile-pair tags compare two integer profiles once per
n, a verdict for every complex exponent and c.  bs_onevar, thm_2_3, thm_2_6,
agl_pti and agl_scaled declare their pair once, in _PAIRS, which numeric
mode, cor_2_4 and class_sum read too; eq_1_13 compares M_0's rows at
symbolic c, whose build needs the run's n_max.  The other exact checks
compare series, normal forms in Q[c] or integers, all with zero tolerance.

The four identities with a numeric form share one table: tag -> its _PAIRS
pair, the name of the exponent axis, and whether c = 1.  Numeric
mode evaluates both profiles, sum_e a(e) * e^z * c^e in complex doubles, on
fixed complex grids for (z, c) and compares within a relative tolerance,
recording a condition estimate (the sum of the left side's term magnitudes
over its value's magnitude) instead of ever widening the tolerance.  A
numeric check is one loop nest over n, z and c on power tables formed at
build, once per run for all four checks: e^z for e <= n_max once per z, c^e
once per c, and each profile weighed once per (n, z) by exact._weigh.  Each
side's value comes from the one weighed sum, exact._sum_weighed; where the
two profiles are equal it sums one for both sides.  Every term is
(a(e) * e^z) * c^e, added in ascending e, so values, conditions and failure
records are bit-identical to evaluating each point on its own.

_run_checks opens and closes every run: it builds each check, which runs no
search, sizes the partition tables to the largest n_max, and runs each
through check_identity, which reads the build, times its search, turns an
AlgorithmFault into a failing report over the declared range, and builds the
report; outside a run check_identity is a run of one check.  The frozen
CheckConfig holds only the seven settings the command line sets; bs_int's
and cor_2_4's exponents, thm_2_2's exact c points and thm_1_2's k_max are
constants here.  It and the assignable IdentityReport are plain records on
partitions._Value, so no check imports dataclasses or inspect.
"""

from __future__ import annotations

import time
from cmath import isfinite
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import compress, product
from math import factorial

from . import exact
from .errors import AlgorithmFault
from .exact import (
    C,
    _bell_polynomials,
    _c_powers,
    _once,
    _sum_weighed,
    _weigh,
    _z_powers,
    divisors,
    sigma_int,
)
from .partitions import (
    _Value,
    _size_tables,
    _table,
    class_sums,
    count_exact_part_sizes,
    size_rows,
    window_marginals,
)
from .series import (
    ExpSeries,
    TruncatedSeries,
    _nested_lambert,
    series_A,
    series_K,
    series_M,
    series_dilcher_binomial,
    series_entry4,
)


class IdentityId(str, Enum):
    BS_BASIC = "bs_basic"
    BS_INT = "bs_int"
    BS_ONEVAR = "bs_onevar"
    UCHIMURA_TRIPLE = "uchimura_triple"
    ENTRY4 = "entry4"
    DILCHER_CM = "dilcher_cm"
    EQ_1_13 = "eq_1_13"
    THM_1_2 = "thm_1_2"
    THM_2_2_EXP = "thm_2_2_exp"
    THM_2_2_BELL = "thm_2_2_bell"
    THM_2_3 = "thm_2_3"
    COR_2_4 = "cor_2_4"
    COR_2_5 = "cor_2_5"
    THM_2_6 = "thm_2_6"
    COR_2_7 = "cor_2_7"
    AGL_PTI = "agl_pti"
    AGL_SCALED = "agl_scaled"
    CLASS_SUM = "class_sum"


class CheckConfig(_Value):
    """The run settings the command line sets; every grid is fixed, never random."""

    __match_args__ = ("n_max", "q_order", "m_max", "z_grid", "c_grid", "mode", "tolerance")

    def __init__(self, n_max: int = 30, q_order: int = 25, m_max: int = 4,
                 z_grid: tuple[complex, ...] = (1.5 + 0j, -1 + 0j, -2 + 0j, 0.5 + 0.5j),
                 c_grid: tuple[complex, ...] = (0.4 + 0j, -0.3 + 0j, 0.4 - 0.3j, 0.2 + 0.7j),
                 mode: str = "exact", tolerance: float = 1e-9) -> None:
        fields = n_max, q_order, m_max, z_grid, c_grid, mode, tolerance
        self.__dict__.update(zip(self.__match_args__, fields))

    def replace(self, **changes) -> CheckConfig:
        """A copy with the named fields changed; an unknown name raises TypeError."""
        return CheckConfig(**(self.__dict__ | changes))


class IdentityReport(_Value):
    """Verdict of one identity check over a parameter range."""

    __match_args__ = ("id", "mode", "range", "status", "first_failure", "elapsed_ms", "condition")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, id: IdentityId, mode: str, range: dict, status: str,
                 first_failure: dict | None, elapsed_ms: float,
                 condition: float | None = None) -> None:
        fields = id, mode, range, status, first_failure, elapsed_ms, condition
        self.__dict__.update(zip(self.__match_args__, fields))

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "id": self.id.value,
            "mode": self.mode,
            "range": _stringify(self.range),
            "status": self.status,
            "first_failure": _stringify(self.first_failure),
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timing else None,
        }
        if self.condition is not None:
            out["condition"] = self.condition
        return out


def _stringify(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return str(value)


def _sigma_powers(limit: int, z: int) -> tuple[int, ...]:
    arr = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dz = d**z
        for m in range(d, limit + 1, d):
            arr[m] += dz
    return tuple(arr)


# d(m) for m <= cap: partitions._table keeps the one table every d(m) read shares
_divisor_counts = partial(_sigma_powers, z=0)


# -- weight profiles ------------------------------------------------------------
#
# Each weighted side below is sum_e a_n(e) * e^z * c^e with integer a_n(e): a
# profile, stored as ascending (e, a_n(e)) pairs with a_n(e) != 0.  The
# functions e -> e^z c^e are linearly independent, so two sides agree for
# every (z, c) exactly when their profiles are equal, as the exact checks test;
# bs_int's exponents and the numeric grids evaluate a profile built once per
# n.  The D(n) sides read the three marginals of the signed (smallest,
# largest) histogram H_n that partitions.window_marginals keeps, the P(n)
# sides the rows G_v = sum_l cnt(l, v) * c^(l-v) that the size-count DP
# keeps, cnt(l, v) counting the partitions with largest l and v sizes.
#
# P_1 = sum_v G_v * (c-1)^(v-1), by Horner's rule in (c - 1), is agl_pti's
# right side and P_0 = (c - 1) * P_1 agl_scaled's.  thm_2_3's is P_0 less its
# constant term: a base l - j = 0 contributes nothing for every exponent k,
# including k = 0, as the weight operator annihilates constants.  thm_2_6's
# is c * (P_1 - G_1) plus its divisor term, which equals c * G_1, so it is
# c * P_1; the tests check both overlaps on per-cell sums.

Profile = tuple[tuple[int, int], ...]


def _profile(row) -> Profile:
    """The profile of a dense row, row[e] = a_n(e)."""
    return tuple(compress(enumerate(row), row))


def _window_profile(n: int) -> Profile:
    # sign * (c^(l-s+1) + ... + c^l) over D(n): c^N carries the class sum of C(N)
    return _profile(class_sums(n))


def _smallest_profile(n: int) -> Profile:
    # sign * c^s over D(n)
    return _profile(window_marginals(n)[0])


def _initial_profile(n: int) -> Profile:
    # sign * (c + c^2 + ... + c^s) over D(n): suffix sums of the smallest part
    row = [0] * (n + 2)
    for s, a in _once(_smallest_profile, n):
        row[s] = a
    for j in range(n, 0, -1):
        row[j] += row[j + 1]
    return _profile(row)


def _binomial_rows(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """G_1, P_1 and P_0 at n, each as its coefficients of c^0..c^n."""
    groups = size_rows(n)
    # Horner's rule: p1 <- (c - 1) * p1 + G_v for v = v_max..1
    p1 = [0] * (n + 1)
    for g in reversed(groups):
        p1 = [b - a + x for a, b, x in zip(p1, [0, *p1], g)]
    p0 = [b - a for a, b in zip(p1, [0, *p1])]
    return groups[0], tuple(p1), tuple(p0)


def _binomial_profile(n: int) -> Profile:
    # sum over P(n) of c^(l-v) (c-1)^v with base l - j = 0 dropped: P_0 less c^0
    return _profile((0, *_once(_binomial_rows, n)[2][1:]))


def _shifted_binomial_profile(n: int) -> Profile:
    # sum over P(n) with v >= 2 of c^(l-v+1) (c-1)^(v-1), plus sum over d | n
    # of c^d: c * (P_1 - G_1) and the divisor term
    g1, p1, _p0 = _once(_binomial_rows, n)
    row = [0, *(p - g for g, p in zip(g1, p1))]
    for d in divisors(n):
        row[d] += 1
    return _profile(row)


def _divisor_profile(n: int) -> Profile:
    return tuple((d, 1) for d in divisors(n))


def _profiles_differ(profiles, n: int) -> dict | None:
    """The least e where the two profiles(n) differ, with a_n(e) on each side
    (0 where a side lacks e); profiles store no zero a_n(e), so one exists."""
    lhs, rhs = profiles(n)
    if lhs == rhs:
        return None
    left, right = dict(lhs), dict(rhs)
    e = min(e for e in left.keys() | right.keys() if left.get(e, 0) != right.get(e, 0))
    return {"e": e, "lhs": left.get(e, 0), "rhs": right.get(e, 0)}


def _at(profile: Profile, k: int) -> int:
    """The profile under the weight e^k at c = 1."""
    return sum(a * e**k for e, a in profile)


def check_cor27(n: int) -> tuple[int, int]:
    """Count with exactly two part sizes vs the signed s*(l-s) moment."""
    return count_exact_part_sizes(n, 2), -window_marginals(n)[2]


def check_cor25(n: int) -> tuple[int, int]:
    """Count with exactly two part sizes vs the divisor-count convolution."""
    if n < 1:
        raise ValueError("n must be positive")
    d = _table(_divisor_counts, n)
    convolution = sum(d[j] * d[n - j] for j in range(1, n))
    numerator = convolution + d[n] - sigma_int(1, n)
    if numerator % 2:
        raise AlgorithmFault(f"half-integer right side at n={n}: {numerator}/2")
    return count_exact_part_sizes(n, 2), numerator // 2


def _agl_profiles(n: int, scaled: bool) -> tuple[Profile, Profile]:
    """Both profiles of the geometric smallest-part weight identity.

    Unscaled: weights 1 + c + ... + c^(s-1) over D(n) against P_1, the sum of
    c^(l-v) (c-1)^(v-1) over P(n); scaled: weights c^s - 1 against P_0.
    """
    _g1, p1, p0 = _once(_binomial_rows, n)
    if scaled:
        # c^s - 1 over D(n): minus the signed count at e = 0, then the
        # smallest parts' profile, which starts at e = 1
        smallest = _once(_smallest_profile, n)
        return _profile((-sum(a for _s, a in smallest),)) + smallest, _profile(p0)
    return tuple((j - 1, a) for j, a in _once(_initial_profile, n)), _profile(p1)


# tag -> (both profiles at n, the range keys its exact check adds beside
# n_max), for both modes, cor_2_4, class_sum and the tests; each row reads
# its builders as module globals at call time, as _once asks
_PAIRS = {
    IdentityId.BS_ONEVAR: (lambda n: (_once(_window_profile, n), _once(_divisor_profile, n)),
                           {"z": "all complex", "c": "symbolic"}),
    IdentityId.THM_2_3: (lambda n: (_once(_smallest_profile, n), _once(_binomial_profile, n)),
                         {"k": "all complex", "c": "symbolic"}),
    IdentityId.THM_2_6: (lambda n: (_once(_initial_profile, n),
                                    _once(_shifted_binomial_profile, n)),
                         {"k": "all complex", "c": "symbolic"}),
    IdentityId.AGL_PTI: (lambda n: _agl_profiles(n, False), {"c": "symbolic", "scaled": False}),
    IdentityId.AGL_SCALED: (lambda n: _agl_profiles(n, True), {"c": "symbolic", "scaled": True}),
}


def _thm22_series(c, m_max: int, q_order: int) -> tuple:
    """A, then K_m and M_m for m = 1..m_max, at c: built once per run for both parts."""
    ms = range(1, m_max + 1)
    a_series, ks = series_A(c, q_order), tuple(_once(series_K, m, c, q_order) for m in ms)
    return a_series, ks, tuple(_once(series_M, m, c, q_order) for m in ms)


def _thm22_pairs(part: str, m_max: int, q_order: int, c) -> dict:
    """m -> the two series one part of thm_2_2 compares at c: the direct
    and the t-exponential route at m = 0..m_max for the exp part, each M_m
    and its Bell closed form at m = 1..m_max for the bell part."""
    a_series, ks, ms = _once(_thm22_series, c, m_max, q_order)
    if part == "bell":
        ys = _bell_polynomials(m_max, ks)
        return {m: (ms[m - 1], a_series * ys[m]) for m in range(1, m_max + 1)}
    egf = lambda series: [s.scale(Fraction(1, factorial(m))) for m, s in enumerate(series, 1)]
    exp_k = ExpSeries([TruncatedSeries.zero(q_order), *egf(ks)]).exp().coeffs
    via_exp = [a_series, *(s * a_series for s in exp_k[1:])]  # exp_k[0] is the series one
    direct = [a_series, *egf(ms)]
    return {m: (direct[m], via_exp[m]) for m in range(m_max + 1)}


# -- the first-failure search -------------------------------------------------


def _first(points, mismatch) -> dict | None:
    """The first point where mismatch finds a difference, merged with it.

    Points are dicts whose keys are the failure record's keys; mismatch
    takes a point's values in order and returns None when they agree.
    """
    for point in points:
        difference = mismatch(*point.values())
        if difference:
            return {**point, **difference}
    return None


def _grid(**axes) -> list[dict]:
    """The points of the product of the axes, the first axis outermost."""
    return [dict(zip(axes, values)) for values in product(*axes.values())]


def _differ(lhs, rhs) -> dict | None:
    return None if lhs == rhs else {"lhs": lhs, "rhs": rhs}


def _series_differ(a, b, values: bool = True) -> dict | None:
    """The first q-power where series a differs from b, and with values the
    two coefficients there; b is a series or a tuple of int coefficients,
    reported as ints."""
    e = a.first_difference(b if isinstance(b, TruncatedSeries) else TruncatedSeries(a.order, b))
    if e is None:
        return None
    return {"q_power": e, "lhs": a[e], "rhs": b[e]} if values else {"q_power": e}


# -- exact checkers: each returns its range and its search ----------------------


_EXPONENTS = (0, 1, 2, 3, 4)  # bs_int's z and cor_2_4's k
_C_EXACT = (Fraction(1), Fraction(2, 3), Fraction(-1, 2))  # both thm_2_2 parts' c
_K_MAX = 4  # the largest k of thm_1_2's k-fold divisor sums


def _ns(cfg: CheckConfig) -> range:
    return range(1, cfg.n_max + 1)


def _over_n(cfg: CheckConfig, mismatch, **rng):
    """Search mismatch(n) for every n <= n_max."""
    return {"n_max": cfg.n_max, **rng}, lambda: _first(_grid(n=_ns(cfg)), mismatch)


def _pair_check(tag: IdentityId, cfg: CheckConfig):
    return _over_n(cfg, partial(_profiles_differ, _PAIRS[tag][0]), **_PAIRS[tag][1])


def _sweep(cfg: CheckConfig, profiles, sides, key: str = "k", **rng):
    """Compare both sides(n, k, *profiles(n)) for every n <= n_max and k in
    _EXPONENTS, n outermost, reading profiles(n) once for every k."""
    rng = {"n_max": cfg.n_max, "exponents": list(_EXPONENTS), **rng}
    exponents = _grid(**{key: _EXPONENTS})
    at_n = lambda n, read: _first(exponents, lambda k: _differ(*sides(n, k, *read)))
    return rng, lambda: _first(_grid(n=_ns(cfg)), lambda n: at_n(n, profiles(n)))


def _cor24_sides(n: int, k: int, smallest: Profile, binomial: Profile) -> tuple[int, int]:
    lhs, rhs = _at(smallest, k), _at(binomial, k)
    if k == 1 and lhs == rhs:
        # the k=1 chain collapses to the divisor count
        rhs = _table(_divisor_counts, n)[n]
    return lhs, rhs


def _class_sum_differ(n: int) -> dict | None:
    # C(N) against the indicator of N | n is bs_onevar's comparison, its e named N
    difference = _profiles_differ(_PAIRS[IdentityId.BS_ONEVAR][0], n)
    return difference and {"N": difference.pop("e"), **difference}


def _check_entry4(cfg: CheckConfig):
    q = cfg.q_order

    def mismatch(c):
        if c == "symbolic":
            return _series_differ(*series_entry4(C, q))
        # c = 1 collapses to the divisor-count series
        divisor = _table(_divisor_counts, q)[: q + 1]
        lhs, rhs = _once(series_entry4, 1, q)
        return _series_differ(lhs, divisor) or _series_differ(rhs, divisor)

    search = partial(_first, _grid(c=("symbolic", 1)), mismatch)
    return {"q_order": q, "c": ["symbolic", 1]}, search


def _check_uchimura(cfg: CheckConfig):
    q = cfg.q_order

    def search():
        # three constructions of sum d(n) q^n, each against the divisor counts
        forms = {
            "M-form": _once(series_M, 1, 1, q),
            "alternating": _once(series_entry4, 1, q)[0],
            "lambert": _once(series_K, 1, 1, q),
        }
        divisor = _table(_divisor_counts, q)[: q + 1]
        return _first(_grid(form=forms), lambda form: _series_differ(forms[form], divisor))

    return {"q_order": q}, search


def _check_thm_1_2(cfg: CheckConfig):
    if cfg.q_order < _K_MAX:
        raise ValueError(f"q-order {cfg.q_order} is below thm_1_2's k_max = {_K_MAX}")

    def mismatch(k, nested):
        a, b = series_dilcher_binomial(k, cfg.q_order)
        return _series_differ(a, b) or _series_differ(a, nested[k - 1])

    def search():
        # construction (c) for every k <= k_max, from one pass over its levels
        nested = _nested_lambert(_K_MAX, cfg.q_order)
        return _first(_grid(k=range(1, _K_MAX + 1)), partial(mismatch, nested=nested))

    return {"q_order": cfg.q_order, "k_max": _K_MAX}, search


def _check_dilcher_cm(cfg: CheckConfig):
    n_max = cfg.n_max

    def search():
        # sigma_0..sigma_3 as int series: their products are the convolutions
        tables = _table(_divisor_counts, n_max), *(_sigma_powers(n_max, z) for z in (1, 2, 3))
        d, s1, s2, s3 = (TruncatedSeries._stored(n_max, t[: n_max + 1]) for t in tables)
        dd = d * d
        ddd = dd * d
        d, s1, s2, s3, dd, ddd, dddd, ds1, s1s1, ds2, dds1 = (
            x.nums for x in (d, s1, s2, s3, dd, ddd, ddd * d, d * s1, s1 * s1, d * s2, dd * s1)
        )
        formulas = {
            1: lambda n: d[n],
            2: lambda n: s1[n] + dd[n],
            3: lambda n: s2[n] + 3 * ds1[n] + ddd[n],
            4: lambda n: s3[n] + 3 * s1s1[n] + 4 * ds2[n] + 6 * dds1[n] + dddd[n],
        }
        series = {m: series_M(m, 1, n_max) for m in formulas}
        smallest = {n: _once(_smallest_profile, n) for n in _ns(cfg)}

        def mismatch(m, n):
            weights = _at(smallest[n], m)
            formula = formulas[m](n)
            if not weights == formula == series[m][n]:
                return {"weights": weights, "convolution": formula, "series": series[m][n]}
            return None

        return _first(_grid(m=formulas, n=_ns(cfg)), mismatch)

    return {"n_max": n_max, "m_max": 4}, search


def _check_eq_1_13(cfg: CheckConfig):
    # M_m weighs c^s q^s by s^m, so its c^s q^N coefficient is s^m times M_0's,
    # as the weighted side's is s^m a_N(s): M_0's rows settle every complex m
    def search():
        m0 = series_M(0, C, cfg.n_max)
        if (m0.den, m0.grade) != (1, 1):  # else nums[n] is not the q^n coefficient's row
            raise AlgorithmFault(f"M_0 at symbolic c has den {m0.den}, grade {m0.grade}")
        rows = lambda n: (_once(_smallest_profile, n), _profile(m0.nums[n]))
        return _first(_grid(n=_ns(cfg)), partial(_profiles_differ, rows))

    return {"n_max": cfg.n_max, "m": "all complex", "c": "symbolic"}, search


def _check_thm22(cfg: CheckConfig, part: str):
    def mismatch(c):
        pairs = _thm22_pairs(part, cfg.m_max, cfg.q_order, c)
        return _first(_grid(m=pairs), lambda m: _series_differ(*pairs[m], values=False))

    rng = {"m_max": cfg.m_max, "q_order": cfg.q_order, "c_values": list(_C_EXACT), "part": part}
    return rng, partial(_first, _grid(c=_C_EXACT), mismatch)


REGISTRY = {
    # a window holds s weights, so sum_e a(e) is the signed smallest-part sum
    IdentityId.BS_BASIC: lambda cfg: _over_n(
        cfg,
        lambda n: _differ(_at(_once(_window_profile, n), 0), _table(_divisor_counts, n)[n]),
    ),
    IdentityId.BS_INT: lambda cfg: _sweep(
        cfg,
        lambda n: (_once(_window_profile, n),),
        lambda n, z, window: (_at(window, z), sigma_int(z, n)),
        key="z",
    ),
    IdentityId.UCHIMURA_TRIPLE: _check_uchimura,
    IdentityId.ENTRY4: _check_entry4,
    IdentityId.DILCHER_CM: _check_dilcher_cm,
    IdentityId.EQ_1_13: _check_eq_1_13,
    IdentityId.THM_1_2: _check_thm_1_2,
    IdentityId.THM_2_2_EXP: lambda cfg: _check_thm22(cfg, "exp"),
    IdentityId.THM_2_2_BELL: lambda cfg: _check_thm22(cfg, "bell"),
    IdentityId.COR_2_4: lambda cfg: _sweep(cfg, _PAIRS[IdentityId.THM_2_3][0], _cor24_sides, c=1),
    IdentityId.COR_2_5: lambda cfg: _over_n(cfg, lambda n: _differ(*check_cor25(n))),
    IdentityId.COR_2_7: lambda cfg: _over_n(cfg, lambda n: _differ(*check_cor27(n))),
    IdentityId.CLASS_SUM: lambda cfg: _over_n(cfg, _class_sum_differ),
    # the profile-pair tags: both profiles of the pair once for every n <= n_max
    **{tag: partial(_pair_check, tag) for tag in _PAIRS},
}


# -- numeric checkers ---------------------------------------------------------

# tag -> (its _PAIRS pair, name of the exponent axis, whether c = 1 as the
# corollary states it instead of the c grid); cor_2_4 is thm_2_3 at c = 1
_NUMERIC = {
    IdentityId.BS_ONEVAR: (_PAIRS[IdentityId.BS_ONEVAR][0], "z", False),
    IdentityId.THM_2_3: (_PAIRS[IdentityId.THM_2_3][0], "k", False),
    IdentityId.COR_2_4: (_PAIRS[IdentityId.THM_2_3][0], "k", True),
    IdentityId.THM_2_6: (_PAIRS[IdentityId.THM_2_6][0], "k", False),
}

# identities whose statements extend to complex (z, c) sampling
NUMERIC_CAPABLE = frozenset(_NUMERIC)


def _numeric_check(cfg: CheckConfig, profiles, key: str, c_is_one: bool):
    """Evaluate both profiles(n) over the (z, c) grids for every n <= n_max.

    Returns the range, the search, and a function giving the worst condition
    met: the sum of left-side term magnitudes over the left side's value.
    The search nests n, z position and c position.  Where both profiles(n)
    are equal tuples it sums one for both sides, bit-identical to a second
    sum of the same terms.  The power tables are keyed by each point's repr,
    since 0j == -0j while their powers differ; a failure record holds the
    grid values.  A power that overflows a double is a ValueError at build,
    and a point where a side or the magnitude sum is not finite is one in
    the search, naming n, z and c: an overflowing term says nothing about
    the identity.
    """
    z_grid, tol = cfg.z_grid, cfg.tolerance
    c_grid = (1 + 0j,) if c_is_one else cfg.c_grid
    c_range = {"c": 1} if c_is_one else {"c_grid": list(c_grid)}
    rng = {"n_max": cfg.n_max, "z_grid": list(z_grid), **c_range, "tolerance": tol}
    z_tables = [(z, _once(_z_powers, z, cfg.n_max)) for z in z_grid]
    c_tables = [(c, _once(_c_powers, c, cfg.n_max)) for c in c_grid]
    worst = 0.0

    def search():
        nonlocal worst
        for n in _ns(cfg):
            lhs_profile, rhs_profile = profiles(n)
            shared = lhs_profile == rhs_profile
            for z, z_powers in z_tables:
                lhs_weighed = _weigh(lhs_profile, z_powers)
                rhs_weighed = None if shared else _weigh(rhs_profile, z_powers)
                for c, c_powers in c_tables:
                    lhs, magnitude = _sum_weighed(lhs_weighed, c_powers)
                    rhs = lhs if shared else _sum_weighed(rhs_weighed, c_powers)[0]
                    if not (isfinite(lhs) and isfinite(rhs) and isfinite(magnitude)):
                        raise ValueError(f"a term at n={n}, z={z}, c={c} overflows a double")
                    worst = max(worst, magnitude / max(1.0, abs(lhs)))
                    if not abs(lhs - rhs) <= tol * max(1.0, abs(rhs)):
                        point = {key: z} if c_is_one else {key: z, "c": c}
                        return {"n": n, **point, "lhs": lhs, "rhs": rhs}
        return None

    return rng, search, lambda: worst


def _build_check(ident, config: CheckConfig) -> tuple:
    """(tag, range, search, worst-condition reader) of one registered check,
    built but not run.  ValueError: an unknown tag or mode, numeric mode on a
    tag without a numeric form, or a range or grid the checker rejects."""
    if not isinstance(ident, IdentityId):
        try:
            ident = IdentityId(str(ident).lower())
        except ValueError:
            raise ValueError(f"unknown identity tag: {ident!r}") from None
    if config.mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode: {config.mode!r}")
    if config.mode == "exact":
        return ident, *REGISTRY[ident](config), None
    if ident in _NUMERIC:
        return ident, *_numeric_check(config, *_NUMERIC[ident])
    raise ValueError(f"identity {ident.value} has no numeric mode")


def check_identity(ident, config: CheckConfig | None = None) -> IdentityReport:
    """Run one registered identity check and return its report: in a run from
    the run's build of it, and outside one as a run of one check.  A check the
    configuration cannot build raises ValueError (see _build_check); internal
    faults become failing reports over its declared range, never silent repairs."""
    config = config or CheckConfig()
    if exact._run_store is None:
        return _run_checks([(ident, config)])[0]
    ident, rng, search, worst = _once(_build_check, ident, config)
    t0 = time.perf_counter()
    try:
        failure = search()
    except AlgorithmFault as fault:
        failure = {"fault": str(fault)}
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    status = "pass" if failure is None else "fail"
    condition = None if worst is None else worst()
    return IdentityReport(ident, config.mode, rng, status, failure, elapsed_ms, condition)


def _run_checks(checks) -> list[IdentityReport]:
    """Reports of the (tag, config) checks in order, from one run: _once's
    store is open from its first build to its last report, however it ends.
    Every check is built before the first runs, so a range one checker
    rejects costs no search, and each then runs through check_identity."""
    exact._run_store = {}
    try:
        for ident, cfg in checks:
            _once(_build_check, ident, cfg)
        _size_tables(max(cfg.n_max for _ident, cfg in checks))
        return [check_identity(ident, cfg) for ident, cfg in checks]
    finally:
        exact._run_store = None


def run_all(config: CheckConfig | None = None):
    """Exact reports for every tag, then numeric reports where defined."""
    exact_cfg, numeric = ((config or CheckConfig()).replace(mode=m) for m in ("exact", "numeric"))
    checks = [(ident, exact_cfg) for ident in IdentityId]
    return _run_checks(checks + [(i, numeric) for i, _ in checks if i in NUMERIC_CAPABLE])

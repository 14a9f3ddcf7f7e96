"""Registry of identity checkers with exact and numeric modes.

Every identity in scope has a closed tag; check_identity dispatches a tag to
its checker and returns a machine-readable IdentityReport.  Each weighted
side is built once per n as an exact integer weight profile (see the weight
profiles section).  Exact mode compares normal forms in Q[c] (or plain
integers) derived from the profiles with zero tolerance.  Numeric mode
evaluates both profiles on fixed complex grids for (z, c) and compares
within a relative tolerance, recording a condition estimate (the sum of the
left side's term magnitudes over its value's magnitude) instead of ever
widening the tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

from .errors import AlgorithmFault
from .exact import (
    C,
    CPolynomial,
    Scalar,
    WeightParams,
    bell_polynomial,
    complex_power,
    divisors,
    sigma_int,
    sigma_zc_exact,
    sigma_zc_numeric,
)
from .involution import class_sum
from .partitions import (
    _table_cap,
    count_exact_part_sizes,
    partitions_by_largest_and_sizes,
    signed_window_counts,
)
from .series import (
    ExpSeries,
    TruncatedSeries,
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


# identities whose statements extend to complex (z, c) sampling
NUMERIC_CAPABLE = frozenset(
    {IdentityId.BS_ONEVAR, IdentityId.THM_2_3, IdentityId.COR_2_4, IdentityId.THM_2_6}
)


@dataclass(frozen=True)
class CheckConfig:
    """Shared knobs for the checkers; every grid is fixed, never random."""

    n_max: int = 30
    q_order: int = 25
    m_max: int = 4
    k_fold_max: int = 4
    exponents: tuple[int, ...] = (0, 1, 2, 3, 4)
    z_grid: tuple[complex, ...] = (1.5 + 0j, -1 + 0j, -2 + 0j, 0.5 + 0.5j)
    c_grid: tuple[complex, ...] = (0.4 + 0j, -0.3 + 0j, 0.4 - 0.3j, 0.2 + 0.7j)
    c_exact: tuple[Fraction, ...] = (Fraction(1), Fraction(2, 3), Fraction(-1, 2))
    mode: str = "exact"
    tolerance: float = 1e-9


@dataclass
class IdentityReport:
    """Verdict of one identity check over a parameter range."""

    id: IdentityId
    mode: str
    range: dict
    status: str
    first_failure: dict | None
    elapsed_ms: float
    condition: float | None = None

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
    if value is None or isinstance(value, (int, str, bool)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (Fraction, complex, CPolynomial)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return str(value)


@lru_cache(maxsize=None)
def _divisor_counts(limit: int) -> tuple[int, ...]:
    arr = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            arr[m] += 1
    return tuple(arr)


@lru_cache(maxsize=None)
def _sigma_powers(limit: int, z: int) -> tuple[int, ...]:
    arr = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dz = d**z
        for m in range(d, limit + 1, d):
            arr[m] += dz
    return tuple(arr)


def _conv(a, b, limit: int) -> tuple[int, ...]:
    out = [0] * (limit + 1)
    for n in range(2, limit + 1):
        out[n] = sum(a[j] * b[n - j] for j in range(1, n))
    return tuple(out)


def _poly(acc: dict[int, int]) -> CPolynomial:
    return CPolynomial({e: v for e, v in acc.items() if v})


# -- weight profiles ------------------------------------------------------------
#
# Each weighted side below is sum_e a_n(e) * e^z * c^e with integer a_n(e): a
# profile, stored as ascending (e, a_n(e)) pairs with a_n(e) != 0.  The
# functions e -> e^z c^e are linearly independent, so two sides agree for
# every (z, c) exactly when their profiles are equal; the exponent and (z, c)
# grids only rescale and evaluate a profile built once per n.  The D(n) sides
# are linear maps of the signed (smallest, largest) histogram H_n, the P(n)
# sides come from the (largest, #sizes) counts of the size-count DP.
#
# In the binomial sums, terms with base l - j = 0 contribute nothing for
# every exponent k, including k = 0: they are the constant terms annihilated
# by the weight operator, and the analytic continuation from k > 0 keeps
# them at zero.

Profile = tuple[tuple[int, int], ...]


def _profile(acc: dict[int, int]) -> Profile:
    return tuple(sorted((e, a) for e, a in acc.items() if a))


@lru_cache(maxsize=None)
def _window_profile(n: int) -> Profile:
    # sign * (c^(l-s+1) + ... + c^l) over D(n), by a difference array
    diff = [0] * (n + 2)
    for (s, largest), h in signed_window_counts(n).items():
        diff[largest - s + 1] += h
        diff[largest + 1] -= h
    return _profile(dict(enumerate(accumulate(diff))))


@lru_cache(maxsize=None)
def _smallest_profile(n: int) -> Profile:
    # sign * c^s over D(n)
    acc: dict[int, int] = {}
    for (s, _largest), h in signed_window_counts(n).items():
        acc[s] = acc.get(s, 0) + h
    return _profile(acc)


@lru_cache(maxsize=None)
def _initial_profile(n: int) -> Profile:
    # sign * (c + c^2 + ... + c^s) over D(n): suffix sums of the smallest part
    smallest = dict(_smallest_profile(n))
    acc: dict[int, int] = {}
    running = 0
    for j in range(n, 0, -1):
        running += smallest.get(j, 0)
        acc[j] = running
    return _profile(acc)


@lru_cache(maxsize=None)
def _binomial_profile(n: int) -> Profile:
    # sum over P(n) of sum_{j=0..v} (-1)^j C(v, j) c^(l-j), base 0 dropped
    acc: dict[int, int] = {}
    for (largest, v), cnt in partitions_by_largest_and_sizes(n).items():
        for j in range(v + 1):
            base = largest - j
            if base:
                acc[base] = acc.get(base, 0) + cnt * (-1) ** j * comb(v, j)
    return _profile(acc)


@lru_cache(maxsize=None)
def _shifted_binomial_profile(n: int) -> Profile:
    # sum over P(n) with v >= 2 of sum_{j<v} (-1)^j C(v-1, j) c^(l-j), plus
    # sum over d | n of c^d; l - j >= l - v + 1 >= 1, so no base is 0
    acc: dict[int, int] = {}
    for (largest, v), cnt in partitions_by_largest_and_sizes(n).items():
        if v < 2:
            continue
        for j in range(v):
            base = largest - j
            acc[base] = acc.get(base, 0) + cnt * (-1) ** j * comb(v - 1, j)
    for d in divisors(n):
        acc[d] = acc.get(d, 0) + 1
    return _profile(acc)


def _divisor_profile(n: int) -> Profile:
    return tuple((d, 1) for d in divisors(n))


def _weighted(profile: Profile, k: int) -> CPolynomial:
    """The profile under the weight e^k, as an exact polynomial in c."""
    return _poly({e: a * e**k for e, a in profile})


def _at(profile: Profile, k: int, c: Scalar) -> Scalar:
    """The profile under the weight e^k at an exact scalar c."""
    return sum(a * e**k * c**e for e, a in profile)


def _evaluate(profile: Profile, z: complex, c: complex) -> tuple[complex, float]:
    """sum_e a(e) * e^z * c^e in complex doubles, and the sum of the term
    magnitudes, whose ratio to the value is the condition estimate."""
    total = 0j
    magnitude = 0.0
    for e, a in profile:
        term = a * complex_power(e, z) * c**e
        total += term
        magnitude += abs(term)
    return total, magnitude


def _exact_k(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


# -- two-variable weighted sum (window weights against sigma_{z,c}) ---------


def lhs_rhs_thm21(n: int, w: WeightParams):
    """Both sides of the two-variable weighted identity at a single n.

    Exact mode returns a pair of CPolynomial; numeric mode a pair of complex.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if w.mode == "exact":
        return _weighted(_window_profile(n), w.z), sigma_zc_exact(w.z, n)
    z, c = complex(w.z), complex(w.c)
    return _evaluate(_window_profile(n), z, c)[0], sigma_zc_numeric(z, c, n)


# -- smallest-part powers against the binomial largest-part sums ------------


def lhs_rhs_thm23(n: int, k, c):
    """Both sides of the smallest-part power identity at a single n."""
    if n < 1:
        raise ValueError("n must be positive")
    sides = (_smallest_profile(n), _binomial_profile(n))
    if _exact_k(k) and isinstance(c, CPolynomial):
        return tuple(_weighted(p, k) for p in sides)
    if _exact_k(k) and isinstance(c, (int, Fraction)):
        return tuple(_at(p, k, c) for p in sides)
    return tuple(_evaluate(p, complex(k), complex(c))[0] for p in sides)


# -- initial-segment powers with the shifted binomial sums ------------------


def lhs_rhs_thm26(n: int, k, c):
    """Both sides of the initial-segment power identity at a single n."""
    if n < 1:
        raise ValueError("n must be positive")
    sides = (_initial_profile(n), _shifted_binomial_profile(n))
    if _exact_k(k) and isinstance(c, CPolynomial):
        return tuple(_weighted(p, k) for p in sides)
    return tuple(_evaluate(p, complex(k), complex(c))[0] for p in sides)


# -- integer corollaries -----------------------------------------------------


def check_cor27(n: int) -> tuple[int, int]:
    """Count with exactly two part sizes vs the signed s*(l-s) moment."""
    if n < 1:
        raise ValueError("n must be positive")
    lhs = count_exact_part_sizes(n, 2)
    rhs = -sum(h * s * (largest - s) for (s, largest), h in signed_window_counts(n).items())
    return lhs, rhs


def check_cor25(n: int) -> tuple[int, int]:
    """Count with exactly two part sizes vs the divisor-count convolution."""
    if n < 1:
        raise ValueError("n must be positive")
    d = _divisor_counts(_table_cap(n))
    convolution = sum(d[j] * d[n - j] for j in range(1, n))
    numerator = convolution + d[n] - sigma_int(1, n)
    if numerator % 2:
        raise AlgorithmFault(f"half-integer right side at n={n}: {numerator}/2")
    return count_exact_part_sizes(n, 2), numerator // 2


# -- geometric-weight identity and its scaled form --------------------------


def check_agl(n: int, scaled: bool) -> tuple[CPolynomial, CPolynomial]:
    """Both sides of the geometric smallest-part weight identity.

    Unscaled: weights 1 + c + ... + c^(s-1) against c^(l-v) (c-1)^(v-1);
    scaled: weights c^s - 1 against c^(l-v) (c-1)^v.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if scaled:
        smallest = _smallest_profile(n)
        lhs = dict(smallest)
        lhs[0] = -sum(a for _s, a in smallest)
    else:
        lhs = {j - 1: a for j, a in _initial_profile(n)}
    rhs: dict[int, int] = {}
    for (largest, v), cnt in partitions_by_largest_and_sizes(n).items():
        p = v if scaled else v - 1
        base = largest - v
        for i in range(p + 1):
            w = cnt * comb(p, i) * (-1) ** (p - i)
            rhs[base + i] = rhs.get(base + i, 0) + w
    return _poly(lhs), _poly(rhs)


# -- exponential generating function routes ----------------------------------


def _thm22_routes(m_max: int, q_order: int, c):
    a_series = series_A(c, q_order)
    ms = [series_M(m, c, q_order) for m in range(1, m_max + 1)]
    ks = [series_K(m, c, q_order) for m in range(1, m_max + 1)]
    direct = ExpSeries(
        [a_series]
        + [ms[m - 1].scale(Fraction(1, factorial(m))) for m in range(1, m_max + 1)]
    )
    ring = a_series.ring
    gen = ExpSeries(
        [TruncatedSeries.zero(q_order, ring)]
        + [ks[m - 1].scale(Fraction(1, factorial(m))) for m in range(1, m_max + 1)]
    )
    via_exp = gen.exp().scale_coeffs(a_series)
    bell_pairs = [
        (ms[m - 1], a_series * bell_polynomial(m, ks[:m]))
        for m in range(1, m_max + 1)
    ]
    return direct, via_exp, bell_pairs


def _first_series_diff(a: TruncatedSeries, b: TruncatedSeries) -> int:
    for e in range(a.order + 1):
        if a.coeffs[e] != b.coeffs[e]:
            return e
    return -1


def check_thm22(m_max: int, q_order: int, c) -> "IdentityReport":
    """Compare the two exponential-generating-function routes and the Bell
    polynomial closed form, for one exact c.  Reported under the
    t-expansion tag; the failure record says which part broke.
    """
    if not 1 <= m_max <= 6:
        raise ValueError("m_max must be between 1 and 6")
    if q_order < 10:
        raise ValueError("q_order must be at least 10")
    t0 = time.perf_counter()
    rng = {"m_max": m_max, "q_order": q_order, "c": c}
    failure = None
    direct, via_exp, bell_pairs = _thm22_routes(m_max, q_order, c)
    for m in range(m_max + 1):
        if direct[m] != via_exp[m]:
            failure = {
                "part": "t-expansion",
                "m": m,
                "q_power": _first_series_diff(direct[m], via_exp[m]),
                "c": c,
            }
            break
    if failure is None:
        for m, (lhs, rhs) in enumerate(bell_pairs, start=1):
            if lhs != rhs:
                failure = {
                    "part": "bell",
                    "m": m,
                    "q_power": _first_series_diff(lhs, rhs),
                    "c": c,
                }
                break
    return _report(IdentityId.THM_2_2_EXP, "exact", rng, failure, t0)


# -- report harness -----------------------------------------------------------


def _report(
    ident: IdentityId,
    mode: str,
    rng: dict,
    failure: dict | None,
    t0: float,
    condition: float | None = None,
) -> IdentityReport:
    return IdentityReport(
        id=ident,
        mode=mode,
        range=rng,
        status="pass" if failure is None else "fail",
        first_failure=failure,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        condition=condition,
    )


def _within(lhs: complex, rhs: complex, tol: float) -> bool:
    return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


# -- checkers -----------------------------------------------------------------


def _exact_sweep(
    ident: IdentityId, cfg: CheckConfig, rng: dict, sides, key: str = "k"
) -> IdentityReport:
    """Compare sides(n, k) for every n <= n_max and k in the exponent grid."""
    t0 = time.perf_counter()
    failure = None
    for n in range(1, cfg.n_max + 1):
        for k in cfg.exponents:
            lhs, rhs = sides(n, k)
            if lhs != rhs:
                failure = {"n": n, key: k, "lhs": lhs, "rhs": rhs}
                break
        if failure:
            break
    return _report(ident, "exact", rng, failure, t0)


def _numeric_sweep(
    ident: IdentityId, cfg: CheckConfig, profiles, key: str = "k", c_is_one: bool = False
) -> IdentityReport:
    """Evaluate both profiles(n) over the (z, c) grids for every n <= n_max.

    c_is_one replaces the c grid by c = 1, as the corollary states it.  The
    condition is the worst sum of left-side term magnitudes over the left
    side's value.
    """
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max, "z_grid": list(cfg.z_grid)}
    if c_is_one:
        rng["c"] = 1
    else:
        rng["c_grid"] = list(cfg.c_grid)
    rng["tolerance"] = cfg.tolerance
    failure = None
    cond_max = 0.0
    for n in range(1, cfg.n_max + 1):
        lhs_profile, rhs_profile = profiles(n)
        for z in cfg.z_grid:
            for c in (1 + 0j,) if c_is_one else cfg.c_grid:
                lhs, magnitude = _evaluate(lhs_profile, z, c)
                rhs, _ = _evaluate(rhs_profile, z, c)
                cond_max = max(cond_max, magnitude / max(1.0, abs(lhs)))
                if not _within(lhs, rhs, cfg.tolerance):
                    failure = {"n": n, key: z, "lhs": lhs, "rhs": rhs}
                    if not c_is_one:
                        failure["c"] = c
                    break
            if failure:
                break
        if failure:
            break
    return _report(ident, "numeric", rng, failure, t0, cond_max)


def _check_bs_basic(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max}
    failure = None
    for n in range(1, cfg.n_max + 1):
        # a window holds s weights, so sum_e a(e) is the signed smallest-part sum
        lhs = _at(_window_profile(n), 0, 1)
        rhs = len(divisors(n))
        if lhs != rhs:
            failure = {"n": n, "lhs": lhs, "rhs": rhs}
            break
    return _report(IdentityId.BS_BASIC, "exact", rng, failure, t0)


def _check_bs_int(cfg: CheckConfig) -> IdentityReport:
    rng = {"n_max": cfg.n_max, "exponents": list(cfg.exponents)}
    sides = lambda n, z: (_at(_window_profile(n), z, 1), sigma_int(z, n))
    return _exact_sweep(IdentityId.BS_INT, cfg, rng, sides, key="z")


def _check_bs_onevar(cfg: CheckConfig) -> IdentityReport:
    ident = IdentityId.BS_ONEVAR
    if cfg.mode == "exact":
        rng = {"n_max": cfg.n_max, "exponents": list(cfg.exponents), "c": "symbolic"}
        sides = lambda n, z: lhs_rhs_thm21(n, WeightParams(z, C))
        return _exact_sweep(ident, cfg, rng, sides, key="z")
    profiles = lambda n: (_window_profile(n), _divisor_profile(n))
    return _numeric_sweep(ident, cfg, profiles, key="z")


def _check_thm_2_3(cfg: CheckConfig) -> IdentityReport:
    if cfg.mode == "exact":
        rng = {"n_max": cfg.n_max, "exponents": list(cfg.exponents), "c": "symbolic"}
        sides = lambda n, k: lhs_rhs_thm23(n, k, C)
        return _exact_sweep(IdentityId.THM_2_3, cfg, rng, sides)
    profiles = lambda n: (_smallest_profile(n), _binomial_profile(n))
    return _numeric_sweep(IdentityId.THM_2_3, cfg, profiles)


def _cor24_sides(n: int, k: int) -> tuple[int, int]:
    lhs = _at(_smallest_profile(n), k, 1)
    rhs = _at(_binomial_profile(n), k, 1)
    if k == 1 and lhs == rhs:
        # the k=1 chain collapses to the divisor count
        rhs = len(divisors(n))
    return lhs, rhs


def _check_cor_2_4(cfg: CheckConfig) -> IdentityReport:
    if cfg.mode == "exact":
        rng = {"n_max": cfg.n_max, "exponents": list(cfg.exponents), "c": 1}
        return _exact_sweep(IdentityId.COR_2_4, cfg, rng, _cor24_sides)
    profiles = lambda n: (_smallest_profile(n), _binomial_profile(n))
    return _numeric_sweep(IdentityId.COR_2_4, cfg, profiles, c_is_one=True)


def _check_thm_2_6(cfg: CheckConfig) -> IdentityReport:
    if cfg.mode == "exact":
        rng = {"n_max": cfg.n_max, "exponents": list(cfg.exponents), "c": "symbolic"}
        sides = lambda n, k: lhs_rhs_thm26(n, k, C)
        return _exact_sweep(IdentityId.THM_2_6, cfg, rng, sides)
    profiles = lambda n: (_initial_profile(n), _shifted_binomial_profile(n))
    return _numeric_sweep(IdentityId.THM_2_6, cfg, profiles)


def _check_cor_2_5(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max}
    failure = None
    for n in range(1, cfg.n_max + 1):
        lhs, rhs = check_cor25(n)
        if lhs != rhs:
            failure = {"n": n, "lhs": lhs, "rhs": rhs}
            break
    return _report(IdentityId.COR_2_5, "exact", rng, failure, t0)


def _check_cor_2_7(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max}
    failure = None
    for n in range(1, cfg.n_max + 1):
        lhs, rhs = check_cor27(n)
        if lhs != rhs:
            failure = {"n": n, "lhs": lhs, "rhs": rhs}
            break
    return _report(IdentityId.COR_2_7, "exact", rng, failure, t0)


def _check_agl(cfg: CheckConfig, scaled: bool) -> IdentityReport:
    ident = IdentityId.AGL_SCALED if scaled else IdentityId.AGL_PTI
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max, "c": "symbolic", "scaled": scaled}
    failure = None
    for n in range(1, cfg.n_max + 1):
        lhs, rhs = check_agl(n, scaled)
        if lhs != rhs:
            failure = {"n": n, "lhs": lhs, "rhs": rhs}
            break
    return _report(ident, "exact", rng, failure, t0)


def _check_class_sum(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max}
    failure = None
    for n in range(1, cfg.n_max + 1):
        for N in range(1, n + 1):
            got = class_sum(n, N)
            want = 1 if n % N == 0 else 0
            if got != want:
                failure = {"n": n, "N": N, "lhs": got, "rhs": want}
                break
        if failure:
            break
    return _report(IdentityId.CLASS_SUM, "exact", rng, failure, t0)


def _check_entry4(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"q_order": cfg.q_order, "c": ["symbolic", 1]}
    failure = None
    lhs, rhs = series_entry4(C, cfg.q_order)
    if lhs != rhs:
        e = _first_series_diff(lhs, rhs)
        failure = {"c": "symbolic", "q_power": e, "lhs": lhs[e], "rhs": rhs[e]}
    if failure is None:
        # c = 1 collapses to the divisor-count series
        lhs1, rhs1 = series_entry4(1, cfg.q_order)
        d = _divisor_counts(cfg.q_order)
        for e in range(1, cfg.q_order + 1):
            if lhs1[e] != d[e] or rhs1[e] != d[e]:
                failure = {"c": 1, "q_power": e, "lhs": lhs1[e], "rhs": d[e]}
                break
    return _report(IdentityId.ENTRY4, "exact", rng, failure, t0)


def _check_uchimura(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"q_order": cfg.q_order}
    failure = None
    first = series_M(1, 1, cfg.q_order)
    second = series_entry4(1, cfg.q_order)[0]
    third = series_K(1, 1, cfg.q_order)
    d = _divisor_counts(cfg.q_order)
    for name, s in (("M-form", first), ("alternating", second), ("lambert", third)):
        for e in range(1, cfg.q_order + 1):
            if s[e] != d[e]:
                failure = {"form": name, "q_power": e, "lhs": s[e], "rhs": d[e]}
                break
        if failure:
            break
    if failure is None and not (first == second == third):
        failure = {"form": "pairwise", "q_power": _first_series_diff(first, second)}
    return _report(IdentityId.UCHIMURA_TRIPLE, "exact", rng, failure, t0)


def _check_thm_1_2(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"q_order": cfg.q_order, "k_max": cfg.k_fold_max}
    failure = None
    for k in range(1, cfg.k_fold_max + 1):
        a, b, c3 = series_dilcher_binomial(k, cfg.q_order)
        if a != b or a != c3:
            other = b if a != b else c3
            e = _first_series_diff(a, other)
            failure = {"k": k, "q_power": e, "lhs": a[e], "rhs": other[e]}
            break
    return _report(IdentityId.THM_1_2, "exact", rng, failure, t0)


def _check_dilcher_cm(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    n_max = cfg.n_max
    rng = {"n_max": n_max, "m_max": 4}
    d = _divisor_counts(n_max)
    s1 = _sigma_powers(n_max, 1)
    s2 = _sigma_powers(n_max, 2)
    s3 = _sigma_powers(n_max, 3)
    dd = _conv(d, d, n_max)
    ddd = _conv(dd, d, n_max)
    dddd = _conv(ddd, d, n_max)
    ds1 = _conv(d, s1, n_max)
    s1s1 = _conv(s1, s1, n_max)
    ds2 = _conv(d, s2, n_max)
    dds1 = _conv(dd, s1, n_max)

    def convolution_value(m: int, n: int) -> int:
        if m == 1:
            return d[n]
        if m == 2:
            return s1[n] + dd[n]
        if m == 3:
            return s2[n] + 3 * ds1[n] + ddd[n]
        return s3[n] + 3 * s1s1[n] + 4 * ds2[n] + 6 * dds1[n] + dddd[n]

    failure = None
    for m in range(1, 5):
        coeffs = series_M(m, 1, n_max)
        for n in range(1, n_max + 1):
            enumerated = _at(_smallest_profile(n), m, 1)
            formula = convolution_value(m, n)
            series_coeff = coeffs[n]
            if not (enumerated == formula == series_coeff):
                failure = {
                    "m": m,
                    "n": n,
                    "enumerated": enumerated,
                    "convolution": formula,
                    "series": series_coeff,
                }
                break
        if failure:
            break
    return _report(IdentityId.DILCHER_CM, "exact", rng, failure, t0)


def _check_eq_1_13(cfg: CheckConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {"n_max": cfg.n_max, "m_max": cfg.m_max, "c": "symbolic"}
    failure = None
    for m in range(1, cfg.m_max + 1):
        coeffs = series_M(m, C, cfg.n_max)
        for n in range(1, cfg.n_max + 1):
            weights = _weighted(_smallest_profile(n), m)
            if coeffs[n] != weights:
                failure = {"m": m, "n": n, "series": coeffs[n], "weights": weights}
                break
        if failure:
            break
    return _report(IdentityId.EQ_1_13, "exact", rng, failure, t0)


def _check_thm22_tag(cfg: CheckConfig, part: str, ident: IdentityId) -> IdentityReport:
    t0 = time.perf_counter()
    rng = {
        "m_max": cfg.m_max,
        "q_order": cfg.q_order,
        "c_values": list(cfg.c_exact),
        "part": part,
    }
    failure = None
    for c in cfg.c_exact:
        direct, via_exp, bell_pairs = _thm22_routes(cfg.m_max, cfg.q_order, c)
        if part == "exp":
            for m in range(cfg.m_max + 1):
                if direct[m] != via_exp[m]:
                    failure = {
                        "c": c,
                        "m": m,
                        "q_power": _first_series_diff(direct[m], via_exp[m]),
                    }
                    break
        else:
            for m, (lhs, rhs) in enumerate(bell_pairs, start=1):
                if lhs != rhs:
                    failure = {
                        "c": c,
                        "m": m,
                        "q_power": _first_series_diff(lhs, rhs),
                    }
                    break
        if failure:
            break
    return _report(ident, "exact", rng, failure, t0)


REGISTRY = {
    IdentityId.BS_BASIC: _check_bs_basic,
    IdentityId.BS_INT: _check_bs_int,
    IdentityId.BS_ONEVAR: _check_bs_onevar,
    IdentityId.UCHIMURA_TRIPLE: _check_uchimura,
    IdentityId.ENTRY4: _check_entry4,
    IdentityId.DILCHER_CM: _check_dilcher_cm,
    IdentityId.EQ_1_13: _check_eq_1_13,
    IdentityId.THM_1_2: _check_thm_1_2,
    IdentityId.THM_2_2_EXP: lambda cfg: _check_thm22_tag(
        cfg, "exp", IdentityId.THM_2_2_EXP
    ),
    IdentityId.THM_2_2_BELL: lambda cfg: _check_thm22_tag(
        cfg, "bell", IdentityId.THM_2_2_BELL
    ),
    IdentityId.THM_2_3: _check_thm_2_3,
    IdentityId.COR_2_4: _check_cor_2_4,
    IdentityId.COR_2_5: _check_cor_2_5,
    IdentityId.THM_2_6: _check_thm_2_6,
    IdentityId.COR_2_7: _check_cor_2_7,
    IdentityId.AGL_PTI: lambda cfg: _check_agl(cfg, scaled=False),
    IdentityId.AGL_SCALED: lambda cfg: _check_agl(cfg, scaled=True),
    IdentityId.CLASS_SUM: _check_class_sum,
}


def check_identity(ident, config: CheckConfig | None = None) -> IdentityReport:
    """Run one registered identity check and return its report.

    Unknown tags raise ValueError; requesting numeric mode for an identity
    without a numeric form raises ValueError as well.  Internal faults become
    failing reports, never silent repairs.
    """
    if config is None:
        config = CheckConfig()
    if not isinstance(ident, IdentityId):
        try:
            ident = IdentityId(str(ident).lower())
        except ValueError:
            raise ValueError(f"unknown identity tag: {ident!r}") from None
    if config.mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode: {config.mode!r}")
    if config.mode == "numeric" and ident not in NUMERIC_CAPABLE:
        raise ValueError(f"identity {ident.value} has no numeric mode")
    checker = REGISTRY[ident]
    t0 = time.perf_counter()
    try:
        return checker(config)
    except AlgorithmFault as fault:
        return _report(ident, config.mode, {"n_max": config.n_max}, {"fault": str(fault)}, t0)


def run_all(config: CheckConfig | None = None, include_numeric: bool = True):
    """Exact reports for every tag, then numeric reports where defined."""
    if config is None:
        config = CheckConfig()
    exact_cfg = replace(config, mode="exact")
    reports = [check_identity(ident, exact_cfg) for ident in IdentityId]
    if include_numeric:
        numeric_cfg = replace(config, mode="numeric")
        reports += [
            check_identity(ident, numeric_cfg)
            for ident in IdentityId
            if ident in NUMERIC_CAPABLE
        ]
    return reports

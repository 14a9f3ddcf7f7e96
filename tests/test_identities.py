"""The identity registry: frozen examples, sweeps, numeric grids, reports."""

import json
import pickle
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from enumeration import enumerate_distinct
from pie import cli, exact, identities, partitions, series
from pie.errors import AlgorithmFault
from pie.exact import C, CPolynomial, divisors
from pie.identities import (
    NUMERIC_CAPABLE,
    CheckConfig,
    IdentityId,
    check_cor25,
    check_cor27,
    check_identity,
    run_all,
)
from pie.partitions import count_exact_part_sizes, size_rows
from sides import fractional_weight, lhs_rhs_thm21, lhs_rhs_thm23, lhs_rhs_thm26
from size_cells import cells_of, rows_of

EXACT_CFG = CheckConfig(n_max=30, q_order=20, m_max=3)
AGL_TAGS = (IdentityId.AGL_PTI, IdentityId.AGL_SCALED)

# module-level sampling grid; the acceptance suite runs the wider one
Z_GRID = (1.5 + 0j, -1 + 0j, 0.5 + 0.5j, 2 - 1j)
C_GRID = (0.4 + 0j, -0.3 + 0j, 0.4 - 0.3j, 0.2 + 0.7j)
NUMERIC_CFG = CheckConfig(n_max=25, mode="numeric", z_grid=Z_GRID, c_grid=C_GRID)


# -- frozen single-point examples ----------------------------------------------


def test_thm21_exact_example():
    lhs, rhs = lhs_rhs_thm21(4, 1, C)
    assert lhs == CPolynomial({1: 1, 2: 2, 4: 4})
    assert rhs == lhs


def test_thm21_trivial_n1():
    for z in (0, 1, 2):
        lhs, rhs = lhs_rhs_thm21(1, z, C)
        assert lhs == C and rhs == C


def test_thm21_divisor_count_specialization():
    lhs, rhs = lhs_rhs_thm21(6, 0, C)
    assert lhs.evaluate(Fraction(1)) == 4
    assert rhs.evaluate(Fraction(1)) == 4


def test_thm23_examples():
    assert lhs_rhs_thm23(2, 2, 1) == (4, 4)
    lhs, rhs = lhs_rhs_thm23(1, 3, C)
    assert lhs == C and rhs == C
    for n in range(1, 31):
        lhs, rhs = lhs_rhs_thm23(n, 1, 1)
        assert lhs == rhs == len(divisors(n))


def test_thm26_examples():
    lhs, rhs = lhs_rhs_thm26(6, 0, C)
    assert lhs.evaluate(Fraction(1)) == 4
    assert rhs.evaluate(Fraction(1)) == 4
    lhs, rhs = lhs_rhs_thm26(1, 2, C)
    assert lhs == C and rhs == C
    lhs, rhs = lhs_rhs_thm26(6, 1, C)
    assert lhs.evaluate(Fraction(1)) == 18
    assert rhs.evaluate(Fraction(1)) == 18


def test_cor27_examples():
    assert check_cor27(6) == (6, 6)
    assert check_cor27(1) == (0, 0)
    assert check_cor27(2) == (0, 0)


def test_cor25_examples():
    assert check_cor25(6) == (6, 6)
    assert check_cor25(1) == (0, 0)
    assert check_cor25(2) == (0, 0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "check",
    [check_cor25, check_cor27, *(identities._PAIRS[t][0] for t in AGL_TAGS)],
    ids=["cor25", "cor27", "agl", "agl-scaled"],
)
def test_pointwise_checks_reject_n_below_one(check, n):
    with pytest.raises(ValueError, match="n must be positive"):
        check(n)


def test_cor25_outside_a_run_grows_one_divisor_table(monkeypatch):
    builds = []

    def build(cap, real=identities._divisor_counts):
        builds.append(cap)
        return real(cap)

    monkeypatch.setattr(partitions, "_tables", {})
    monkeypatch.setattr(identities, "_divisor_counts", build)
    d = (0, *(len(divisors(j)) for j in range(1, 257)))
    for n in range(1, 201):
        convolution = sum(d[j] * d[n - j] for j in range(1, n))
        rhs = (convolution + d[n] - sum(divisors(n))) // 2
        assert check_cor25(n) == (count_exact_part_sizes(n, 2), rhs)
    assert builds == [32, 64, 128, 256]
    assert partitions._tables[build] == (256, d)  # the one table, grown in place


def test_divisor_count_readers_share_one_table(monkeypatch):
    # each reader in turn reaches past the table's cap and grows it once; then
    # every reader, at every step's range, builds nothing more
    steps = [
        ("cor_2_5", CheckConfig(n_max=20, q_order=10)),
        ("entry4", CheckConfig(n_max=10, q_order=50)),
        ("uchimura_triple", CheckConfig(n_max=10, q_order=100)),
        ("dilcher_cm", CheckConfig(n_max=150, q_order=10)),
    ]
    builds = []

    def build(cap, real=identities._divisor_counts):
        table = real(cap)
        assert table == (0, *(len(divisors(m)) for m in range(1, cap + 1)))
        builds.append(cap)
        return table

    monkeypatch.setattr(partitions, "_tables", {})
    monkeypatch.setattr(identities, "_divisor_counts", build)
    for ident, cfg in steps:
        assert check_identity(ident, cfg).passed, ident
    assert builds == [32, 64, 128, 256]
    for ident, _cfg in steps:
        for _reader, cfg in steps:
            assert check_identity(ident, cfg).passed, (ident, cfg)
    assert builds == [32, 64, 128, 256]


@pytest.mark.parametrize("fails", [False, True], ids=["passing", "failing"])
def test_thm_1_2_keeps_no_lambert_level(monkeypatch, fails):
    # construction (c) for k = 1..k_max comes from one local pass over its
    # levels, made once per check whether it passes or stops at a failure;
    # no level is cached, so none outlives the check
    calls = []

    def nested(k_max, q, real=identities._nested_lambert):
        calls.append((k_max, q))
        return [s.scale(2) if fails and k == 3 else s for k, s in enumerate(real(k_max, q), 1)]

    monkeypatch.setattr(identities, "_nested_lambert", nested)
    rep = check_identity("thm_1_2", CheckConfig(q_order=40))
    assert rep.passed is not fails
    assert calls == [(identities._K_MAX, 40)]
    if fails:
        assert rep.first_failure["k"] == 3


def test_agl_examples():
    # profiles: (e, a) pairs for the sides sum_e a * c^e
    pti, scaled = (identities._PAIRS[t][0] for t in AGL_TAGS)
    lhs, rhs = pti(3)
    assert lhs == ((1, 1), (2, 1))  # c + c^2
    assert rhs == lhs
    lhs, rhs = pti(1)
    assert lhs == rhs == ((0, 1),)
    lhs, rhs = scaled(5)
    assert sum(a for _e, a in lhs) == 0  # both sides vanish at c = 1
    assert sum(a for _e, a in rhs) == 0


def test_check_thm22_report():
    cfg = CheckConfig(m_max=3, q_order=15)
    rep = check_identity(IdentityId.THM_2_2_EXP, cfg)
    assert rep.status == "pass"
    assert rep.id is IdentityId.THM_2_2_EXP
    assert rep.range["c_values"] == list(identities._C_EXACT)


def test_single_point_sides_at_an_exact_rational_c():
    # one dispatch: an exact rational c gives exact Fractions, equal to the
    # symbolic polynomials evaluated at that c
    half = Fraction(1, 2)
    for sides in (lhs_rhs_thm21, lhs_rhs_thm23, lhs_rhs_thm26):
        lhs, rhs = sides(4, 1, half)
        assert type(lhs) is Fraction and type(rhs) is Fraction
        assert lhs == rhs
        symbolic = sides(4, 1, C)
        assert (lhs, rhs) == tuple(p.evaluate(half) for p in symbolic)


# -- exact sweeps ----------------------------------------------------------------


@pytest.mark.parametrize("ident", list(IdentityId))
def test_every_identity_passes_exact(ident):
    rep = check_identity(ident, EXACT_CFG)
    assert rep.status == "pass", rep.first_failure
    assert rep.mode == "exact"
    assert rep.first_failure is None


def test_bs_int_wide_sweep():
    rep = check_identity(IdentityId.BS_INT, CheckConfig(n_max=60))
    assert rep.passed
    assert rep.range["exponents"] == list(identities._EXPONENTS) == [0, 1, 2, 3, 4]


def test_agl_wide_sweep():
    cfg = CheckConfig(n_max=60)
    assert check_identity(IdentityId.AGL_PTI, cfg).passed
    assert check_identity(IdentityId.AGL_SCALED, cfg).passed


def test_eq_1_13_bridge():
    rep = check_identity(IdentityId.EQ_1_13, CheckConfig(n_max=30, m_max=4))
    assert rep.passed
    assert rep.range == {"n_max": 30, "m": "all complex", "c": "symbolic"}


def test_eq_1_13_builds_one_series_inside_its_search(monkeypatch):
    real, built = identities.series_M, []
    monkeypatch.setattr(identities, "series_M", lambda *args: built.append(args) or real(*args))
    _tag, _range, search, _worst = identities._build_check("eq_1_13", CheckConfig(n_max=12))
    assert built == []  # building the check builds no series
    assert search() is None
    assert built == [(0, C, 12)]


def test_eq_1_13_reads_rows_only_at_den_and_grade_one(monkeypatch):
    # a halved M_0 keeps its int rows and takes den 2: read as rows, it would pass
    real = identities.series_M
    monkeypatch.setattr(identities, "series_M", lambda *args: real(*args).scale(Fraction(1, 2)))
    rep = check_identity(IdentityId.EQ_1_13, CheckConfig(n_max=6))
    assert rep.status == "fail"
    assert rep.first_failure == {"fault": "M_0 at symbolic c has den 2, grade 1"}


# -- numeric mode ------------------------------------------------------------------


@pytest.mark.parametrize("ident", sorted(NUMERIC_CAPABLE, key=lambda i: i.value))
def test_numeric_grid_within_tolerance(ident):
    rep = check_identity(ident, NUMERIC_CFG)
    assert rep.status == "pass", rep.first_failure
    assert rep.mode == "numeric"
    assert rep.condition is not None and rep.condition > 0.0


def test_numeric_negative_integer_exponents():
    cfg = NUMERIC_CFG.replace(z_grid=(-1 + 0j, -2 + 0j), n_max=30)
    rep = check_identity(IdentityId.BS_ONEVAR, cfg)
    assert rep.passed


def test_numeric_rejected_for_exact_only_identities():
    with pytest.raises(ValueError):
        check_identity(IdentityId.CLASS_SUM, NUMERIC_CFG.replace(n_max=10))


def test_numeric_failure_is_reported_not_raised(skewed_binomial_profile):
    cfg = NUMERIC_CFG.replace(n_max=25)
    rep = check_identity(IdentityId.THM_2_3, cfg)
    assert rep.status == "fail"
    assert rep.first_failure is not None
    assert "n" in rep.first_failure


# signed zeros and a repeated point: the power tables go by grid position
EDGE_Z = (0j, -0j, 1.5 - 0.5j, 1.5 - 0.5j)
EDGE_C = (-0.3 + 0j, 0.85 + 0j, 0.4 - 0.3j, -0j)
EDGE_CFG = CheckConfig(n_max=12, mode="numeric", z_grid=EDGE_Z, c_grid=EDGE_C)


@pytest.mark.parametrize("ident", sorted(NUMERIC_CAPABLE, key=lambda i: i.value))
def test_numeric_condition_matches_single_point_sums(ident):
    # the table-driven check against fractional_weight at every grid point,
    # itself checked bit for bit against per-term powers in test_exact
    profiles, _key, c_is_one = identities._NUMERIC[ident]
    for cfg in (CheckConfig(n_max=60, mode="numeric"), EDGE_CFG.replace(n_max=60)):
        conditions = [0.0]
        for n in range(1, cfg.n_max + 1):
            lhs = profiles(n)[0]
            for z in cfg.z_grid:
                for c in (1 + 0j,) if c_is_one else cfg.c_grid:
                    value, magnitude = fractional_weight(lhs, z, c)
                    conditions.append(magnitude / max(1.0, abs(value)))
        rep = check_identity(ident, cfg)
        assert rep.passed
        assert rep.condition == max(conditions)


def _count_sums(monkeypatch) -> Counter:
    """Count the calls of the numeric search's weigh and sum stages."""
    calls = Counter()
    for name in ("_weigh", "_sum_weighed"):

        def counted(*args, real=getattr(identities, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(identities, name, counted)
    return calls


def test_numeric_failure_record_matches_single_point_sums(monkeypatch, skewed_binomial_profile):
    # the skew makes the profiles differ at every n, so the first point fails,
    # and there the right side is weighed and summed on its own
    calls = _count_sums(monkeypatch)
    for ident in (IdentityId.THM_2_3, IdentityId.COR_2_4):
        calls.clear()
        failure = check_identity(ident, EDGE_CFG).first_failure
        assert failure["n"] == 1 and failure["k"] == EDGE_Z[0]
        assert calls == {"_weigh": 2, "_sum_weighed": 2}
        lhs, rhs = identities._PAIRS[IdentityId.THM_2_3][0](failure["n"])
        c = failure.get("c", 1 + 0j)
        assert failure["lhs"] == fractional_weight(lhs, failure["k"], c)[0]
        assert failure["rhs"] == fractional_weight(rhs, failure["k"], c)[0]


@pytest.mark.parametrize("ident", sorted(NUMERIC_CAPABLE, key=lambda i: i.value))
def test_numeric_equal_profiles_share_one_side(monkeypatch, ident):
    calls = _count_sums(monkeypatch)
    cfg = NUMERIC_CFG.replace(n_max=20)
    c_points = 1 if identities._NUMERIC[ident][2] else len(cfg.c_grid)
    assert check_identity(ident, cfg).passed
    assert calls == {
        "_weigh": cfg.n_max * len(cfg.z_grid),
        "_sum_weighed": cfg.n_max * len(cfg.z_grid) * c_points,
    }


def test_numeric_check_powers_once_per_exponent_and_z(monkeypatch):
    real = exact.complex_power
    calls = []

    def counted(j, z):
        calls.append((j, z))
        return real(j, z)

    binders = [
        module
        for name, module in list(sys.modules.items())
        if (name == "pie" or name.startswith("pie."))
        and getattr(module, "complex_power", None) is real
    ]
    assert exact in binders
    for module in binders:
        monkeypatch.setattr(module, "complex_power", counted)
    cfg = NUMERIC_CFG.replace(n_max=20)
    for ident in NUMERIC_CAPABLE:
        calls.clear()
        assert check_identity(ident, cfg).passed
        assert 0 < len(calls) <= cfg.n_max * len(cfg.z_grid)


# -- dispatch and reports ------------------------------------------------------------


def test_check_identity_accepts_tag_strings():
    rep = check_identity("class_sum", CheckConfig(n_max=12))
    assert rep.id is IdentityId.CLASS_SUM
    assert rep.passed


def test_unknown_tag_is_a_usage_error():
    with pytest.raises(ValueError):
        check_identity("no_such_identity")
    with pytest.raises(ValueError):
        check_identity(IdentityId.BS_BASIC, CheckConfig(mode="fuzzy"))


def test_registry_is_closed_and_total():
    reports = run_all(CheckConfig(n_max=12, q_order=12, m_max=2))
    exact = [r for r in reports if r.mode == "exact"]
    numeric = [r for r in reports if r.mode == "numeric"]
    assert {r.id for r in exact} == set(IdentityId)
    assert {r.id for r in numeric} == set(NUMERIC_CAPABLE)
    assert all(r.passed for r in reports)


def test_run_all_runs_each_check_through_check_identity(monkeypatch):
    # check_identity is the one per-check entry, so timing and tracing tools
    # that wrap it see every check of a run
    real, calls = identities.check_identity, []
    monkeypatch.setattr(
        identities, "check_identity", lambda ident, cfg: calls.append(ident) or real(ident, cfg)
    )
    reports = run_all(CheckConfig(n_max=6, q_order=8, m_max=2))
    assert calls == [r.id for r in reports]


def test_run_all_builds_each_table_once_at_its_n_max(table_builds):
    reports = run_all(CheckConfig(n_max=40, q_order=12, m_max=2))
    assert all(r.passed for r in reports)
    assert table_builds == {"cells": [40], "windows": [40]}


def test_a_check_that_reads_no_table_builds_none(table_builds):
    assert check_identity("entry4", CheckConfig(n_max=200, q_order=12)).passed
    assert table_builds == {"cells": [], "windows": []}


def test_run_all_builds_each_series_at_c_one_once(monkeypatch):
    # K_1 and M_1 at c = 1 serve uchimura_triple and thm_2_2, entry4's sides
    # at c = 1 serve uchimura_triple and entry4, and A at each c serves both
    # parts of thm_2_2: one build each per run, and none outlives its run
    built = Counter()
    for name in ("series_A", "series_K", "series_M", "series_entry4"):

        def counted(*args, real=getattr(identities, name), name=name):
            built[(name, *map(str, args))] += 1
            return real(*args)

        monkeypatch.setattr(identities, name, counted)
    cfg = CheckConfig(n_max=10, q_order=12, m_max=2)
    for runs in (1, 2):
        assert all(r.passed for r in run_all(cfg))
        for key in ("series_K", 1, 1), ("series_M", 1, 1), ("series_entry4", 1):
            assert (*map(str, key), "12") in built
        assert [k for k in built if k[0] == "series_A"] == [
            ("series_A", str(c), "12") for c in identities._C_EXACT
        ]
        assert set(built.values()) == {runs}


def _fault_in_thm_2_2(monkeypatch):
    def broken(c, order):
        raise AlgorithmFault("constructions disagree")

    monkeypatch.setattr(identities, "series_A", broken)
    reports = run_all(CheckConfig(n_max=6, q_order=8, m_max=2))
    failed = [(r.id, r.first_failure) for r in reports if not r.passed]
    fault = {"fault": "constructions disagree"}
    return failed == [(IdentityId.THM_2_2_EXP, fault), (IdentityId.THM_2_2_BELL, fault)]


# runs that end in three ways: every check passes, a check's build raises
# ValueError (thm_1_2 rejects q-order 3), and checks fail with an AlgorithmFault
RUN_ENDS = {
    "passing": lambda mp: all(r.passed for r in run_all(CheckConfig(n_max=6, q_order=8, m_max=2))),
    "rejected-build": lambda mp: cli.main(["verify", "--all", "--q-order", "3"]) == 2,
    "algorithm-fault": _fault_in_thm_2_2,
}


@pytest.mark.parametrize("end", RUN_ENDS.values(), ids=RUN_ENDS)
def test_run_store_lives_only_as_long_as_its_run(monkeypatch, capsys, end):
    opened, real = [], identities._build_check
    monkeypatch.setattr(
        identities,
        "_build_check",
        lambda *args: opened.append(exact._run_store is not None) or real(*args),
    )
    assert end(monkeypatch)
    assert opened and all(opened)
    assert exact._run_store is None


def test_check_identity_on_its_own_is_a_run_of_one_check(monkeypatch):
    # the store is open while the check is built and while its search runs,
    # and dropped when check_identity returns
    opened, real_build, real_first = [], identities._build_check, identities._first

    def build(*args):
        opened.append(("build", exact._run_store is not None))
        return real_build(*args)

    def first(*args):
        opened.append(("search", exact._run_store is not None))
        return real_first(*args)

    monkeypatch.setattr(identities, "_build_check", build)
    monkeypatch.setattr(identities, "_first", first)
    assert exact._run_store is None
    assert check_identity("bs_basic", CheckConfig(n_max=8)).passed
    assert opened == [("build", True), ("search", True)]
    assert exact._run_store is None


# the per-n profile builders, each read through exact._once
PROFILE_BUILDERS = (
    "_window_profile", "_smallest_profile", "_binomial_rows", "_pti_profiles",
    "_scaled_profiles", "_divisor_profile",
)


def test_each_run_builds_each_check_and_profile_once(monkeypatch):
    # per run_all, one build of every check and of every profile at each n;
    # nothing outlives the run, so a second run builds all of them again, and
    # no builder keeps a cache of its own behind the run store
    layers = (exact, series, identities)
    assert not [v for m in layers for v in vars(m).values() if hasattr(v, "cache_clear")]
    built = Counter()

    def spy(name):
        real = getattr(identities, name)
        return lambda *args: built.update([(name, *map(str, args))]) or real(*args)

    for name in ("_build_check", *PROFILE_BUILDERS):
        monkeypatch.setattr(identities, name, spy(name))
    cfg = CheckConfig(n_max=10, q_order=12, m_max=2)
    for runs in (1, 2):
        reports = run_all(cfg)
        assert all(r.passed for r in reports)
        assert len([k for k in built if k[0] == "_build_check"]) == len(reports)
        for name in PROFILE_BUILDERS:
            assert sorted(int(k[1]) for k in built if k[0] == name) == list(range(1, 11))
        assert set(built.values()) == {runs}


@pytest.mark.parametrize("tag", ["bs_int", "cor_2_4", "dilcher_cm"])
def test_each_search_reads_each_profile_once_per_n(monkeypatch, tag):
    # the exponent and m loops reuse the profiles read at n: a run reads
    # each profile through the run store at most once per n
    reads = Counter()

    def spy(build, *args):
        reads[build.__name__, *args] += 1
        return real(build, *args)

    real = identities._once
    monkeypatch.setattr(identities, "_once", spy)
    assert check_identity(tag, CheckConfig(n_max=12)).passed
    profile_reads = [count for key, count in reads.items() if key[0] in PROFILE_BUILDERS]
    assert len(profile_reads) >= 12 and set(profile_reads) == {1}


@pytest.mark.parametrize(
    "name, value", [("exponents", (-1,)), ("c_exact", (Fraction(1, 2),)), ("k_fold_max", 7)]
)
def test_check_config_takes_no_library_only_range(name, value):
    # the exponent grid, the exact c points and thm_1_2's k_max are constants
    # of identities, so no configuration names a range a checker would reject
    message = f"CheckConfig.__init__() got an unexpected keyword argument '{name}'"
    with pytest.raises(TypeError, match=re.escape(message)):
        CheckConfig(**{name: value})
    with pytest.raises(TypeError, match=re.escape(message)):
        CheckConfig().replace(**{name: value})


def test_check_config_value_semantics():
    # a frozen record of its seven fields, taken by position or keyword:
    # equal only to a CheckConfig, hashed and shown by the fields in order
    names = ("n_max", "q_order", "m_max", "z_grid", "c_grid", "mode", "tolerance")
    cfg = CheckConfig()
    values = tuple(getattr(cfg, name) for name in names)
    assert CheckConfig.__match_args__ == names
    assert values[:3] + values[5:] == (30, 25, 4, "exact", 1e-9)
    assert cfg == CheckConfig(*values) == CheckConfig(**dict(zip(names, values)))
    assert hash(cfg) == hash(CheckConfig()) == hash(values)
    assert cfg != values and cfg != CheckConfig(n_max=31)
    assert repr(cfg) == (
        "CheckConfig(n_max=30, q_order=25, m_max=4, "
        "z_grid=((1.5+0j), (-1+0j), (-2+0j), (0.5+0.5j)), "
        "c_grid=((0.4+0j), (-0.3+0j), (0.4-0.3j), (0.2+0.7j)), mode='exact', tolerance=1e-09)"
    )
    assert repr(CheckConfig(7, 9, mode="numeric", z_grid=(1j,))) == (
        "CheckConfig(n_max=7, q_order=9, m_max=4, z_grid=(1j,), "
        "c_grid=((0.4+0j), (-0.3+0j), (0.4-0.3j), (0.2+0.7j)), mode='numeric', tolerance=1e-09)"
    )
    with pytest.raises(AttributeError, match="cannot assign to field 'n_max'"):
        cfg.n_max = 5
    with pytest.raises(AttributeError, match="cannot delete field 'mode'"):
        del cfg.mode
    changed = cfg.replace(n_max=5, mode="numeric")
    assert (changed.n_max, changed.mode, changed.q_order) == (5, "numeric", 25)
    assert changed == CheckConfig(n_max=5, mode="numeric") and cfg == CheckConfig()
    assert cfg.replace() == cfg
    message = "CheckConfig.__init__() got an unexpected keyword argument 'nope'"
    with pytest.raises(TypeError, match=re.escape(message)):
        cfg.replace(nope=1)
    match changed:
        case CheckConfig(n_max, q_order, mode=mode):
            assert (n_max, q_order, mode) == (5, 25, "numeric")
        case _:
            pytest.fail("CheckConfig did not match its positional pattern")
    assert pickle.loads(pickle.dumps(changed)) == changed


def test_identity_report_value_semantics():
    # a record of its seven fields, equal only to an IdentityReport and
    # shown by the fields in order; its fields stay assignable, so it has
    # no hash
    failure = {"n": 2, "lhs": Fraction(1, 2)}
    fields = (IdentityId.CLASS_SUM, "exact", {"n": "1..3"}, "fail", failure, 1.5)
    names = ("id", "mode", "range", "status", "first_failure", "elapsed_ms", "condition")
    rep = identities.IdentityReport(*fields)
    assert identities.IdentityReport.__match_args__ == names
    assert tuple(getattr(rep, name) for name in names) == (*fields, None)
    assert rep == identities.IdentityReport(**dict(zip(names, fields)), condition=None)
    assert rep != (*fields, None) and rep != identities.IdentityReport(*fields, 2.0)
    assert repr(rep) == (
        "IdentityReport(id=<IdentityId.CLASS_SUM: 'class_sum'>, mode='exact', "
        "range={'n': '1..3'}, status='fail', first_failure={'n': 2, 'lhs': Fraction(1, 2)}, "
        "elapsed_ms=1.5, condition=None)"
    )
    with pytest.raises(TypeError, match="unhashable"):
        hash(rep)
    assert not rep.passed
    rep.status, rep.condition = "pass", 3.0
    assert rep.passed and rep.to_json_dict()["condition"] == 3.0
    match rep:
        case identities.IdentityReport(ident, mode, condition=condition):
            assert (ident, mode, condition) == (IdentityId.CLASS_SUM, "exact", 3.0)
        case _:
            pytest.fail("IdentityReport did not match its positional pattern")
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_report_json_shape():
    rep = check_identity(IdentityId.BS_BASIC, CheckConfig(n_max=10))
    d = rep.to_json_dict()
    assert d["id"] == "bs_basic"
    assert d["mode"] == "exact"
    assert d["status"] == "pass"
    assert d["first_failure"] is None
    assert d["elapsed_ms"] is None  # timings are opt-in
    timed = rep.to_json_dict(include_timing=True)
    assert isinstance(timed["elapsed_ms"], float)
    json.dumps(d)  # serializable as-is


def test_report_values_render_as_strings(skewed_binomial_profile):
    rep = check_identity(IdentityId.THM_2_3, NUMERIC_CFG)
    d = rep.to_json_dict()
    assert d["status"] == "fail"
    assert isinstance(d["first_failure"]["lhs"], str)
    assert isinstance(d["first_failure"]["rhs"], str)
    json.dumps(d)


# -- failure records -----------------------------------------------------------


def _skew_cell(real):
    # the one-part partition (n) counted twice in the smallest-part row
    def skewed(n):
        row, sums, moment = real(n)
        return (*row[:n], row[n] + 1), sums, moment

    return skewed


def _skew_class_sums(real):
    # the one-part partition (n) counted twice in every class C(N), N = 1..n
    def skewed(n):
        sums = real(n)
        return (sums[0], *(v + 1 for v in sums[1:]))

    return skewed


def _skew_one_part(real):
    # the one-part partition (n) counted twice by (largest, #sizes)
    def skewed(n):
        counts = cells_of(real(n))
        counts[n, 1] = counts.get((n, 1), 0) + 1
        return rows_of(counts, n)

    return skewed


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _double(real):
    return lambda *args: real(*args).scale(2)


def _double_last(real):
    # builders returning a tuple of series: the last one doubles
    def skewed(*args):
        *head, last = real(*args)
        return (*head, last.scale(2))

    return skewed


LHS_RHS = {"lhs", "rhs"}
# the record of a profile-pair tag: the least e where a_n(e) differs
PROFILE_RECORD = {"n", "e"} | LHS_RHS

# (tag, mode, builder identities imports by name or None for the
# skewed_binomial_profile fixture, skew, keys of the failure record)
FORCED_FAILURES = [
    ("bs_basic", "exact", "class_sums", _skew_class_sums, {"n"} | LHS_RHS),
    ("bs_int", "exact", "class_sums", _skew_class_sums, {"n", "z"} | LHS_RHS),
    ("bs_onevar", "exact", "class_sums", _skew_class_sums, PROFILE_RECORD),
    ("uchimura_triple", "exact", "series_K", _double, {"form", "q_power"} | LHS_RHS),
    ("entry4", "exact", "series_entry4", _double_last, {"c", "q_power"} | LHS_RHS),
    (
        "dilcher_cm",
        "exact",
        "series_M",
        _double,
        {"m", "n", "weights", "convolution", "series"},
    ),
    ("eq_1_13", "exact", "series_M", _double, PROFILE_RECORD),
    ("thm_1_2", "exact", "series_dilcher_binomial", _double_last, {"k", "q_power"} | LHS_RHS),
    ("thm_2_2_exp", "exact", "series_K", _double, {"c", "m", "q_power"}),
    ("thm_2_2_bell", "exact", "series_K", _double, {"c", "m", "q_power"}),
    ("thm_2_3", "exact", None, None, PROFILE_RECORD),
    ("cor_2_4", "exact", None, None, {"n", "k"} | LHS_RHS),
    ("cor_2_5", "exact", "count_exact_part_sizes", _plus_one, {"n"} | LHS_RHS),
    ("thm_2_6", "exact", "window_marginals", _skew_cell, PROFILE_RECORD),
    ("cor_2_7", "exact", "count_exact_part_sizes", _plus_one, {"n"} | LHS_RHS),
    ("agl_pti", "exact", "size_rows", _skew_one_part, PROFILE_RECORD),
    ("agl_scaled", "exact", "size_rows", _skew_one_part, PROFILE_RECORD),
    ("class_sum", "exact", "class_sums", _skew_class_sums, {"n", "N"} | LHS_RHS),
    ("bs_onevar", "numeric", "class_sums", _skew_class_sums, {"n", "z", "c"} | LHS_RHS),
    ("thm_2_3", "numeric", None, None, {"n", "k", "c"} | LHS_RHS),
    ("cor_2_4", "numeric", None, None, {"n", "k"} | LHS_RHS),
    ("thm_2_6", "numeric", "window_marginals", _skew_cell, {"n", "k", "c"} | LHS_RHS),
]


# the profile pair each profile-pair tag compares at n
PROFILE_PAIRS = {
    **{tag.value: profiles for tag, (profiles, _rng) in identities._PAIRS.items()},
    # the smallest-part row against M_0's row at the run's n_max = 6
    "eq_1_13": lambda n: (
        identities._smallest_profile(n),
        identities._profile(identities.series_M(0, C, 6).nums[n]),
    ),
}


@pytest.mark.parametrize(
    "tag, mode, builder, skew, keys",
    FORCED_FAILURES,
    ids=[f"{tag}-{mode}" for tag, mode, *_ in FORCED_FAILURES],
)
def test_forced_failure_record(request, monkeypatch, tag, mode, builder, skew, keys):
    if builder is None:
        request.getfixturevalue("skewed_binomial_profile")
    else:
        monkeypatch.setattr(identities, builder, skew(getattr(identities, builder)))
    profile_pair = mode == "exact" and tag in PROFILE_PAIRS
    rep = check_identity(tag, CheckConfig(n_max=6, q_order=10, m_max=2, mode=mode))
    failure = rep.first_failure
    if failure and profile_pair:
        # the skewed profiles at the failing n, read while the skew holds
        sides = [dict(p) for p in PROFILE_PAIRS[tag](failure["n"])]
    assert rep.status == "fail"
    assert set(failure) == keys
    if profile_pair:
        values = [failure["lhs"], failure["rhs"]]
        assert values == [side.get(failure["e"], 0) for side in sides]
        assert all(type(v) is int for v in values)


def _skew_classes(cells):
    """class_sums with C(N) + 1 for each N in cells[n]; every class of every
    n for cells None."""
    real = identities.class_sums
    if cells is None:
        return _skew_class_sums(real)

    def skewed(n):
        sums = list(real(n))
        for N in cells.get(n, ()):
            sums[N] += 1
        return tuple(sums)

    return skewed


@pytest.mark.parametrize(
    "cells, record",
    [
        (None, {"n": 1, "N": 1, "lhs": 2, "rhs": 1}),
        ({5: (5, 3), 6: (2,)}, {"n": 5, "N": 3, "lhs": 1, "rhs": 0}),
    ],
    ids=["every-class", "least-of-several"],
)
def test_class_sum_names_the_least_failing_n_and_N(monkeypatch, cells, record):
    # class_sum compares each row C(1)..C(n) at once, yet names the least
    # (n, N) whose class sum misses the indicator of N | n
    monkeypatch.setattr(identities, "class_sums", _skew_classes(cells))
    rep = check_identity("class_sum", CheckConfig(n_max=8))
    assert rep.first_failure == record


@pytest.mark.parametrize("cells", [None, {5: (5, 3), 6: (2,)}], ids=["every-class", "two-cells"])
def test_class_sum_reads_bs_onevar_comparison(monkeypatch, cells):
    # one skew fails both tags at the same n and the same point: class_sum
    # is bs_onevar's comparison with its e named N
    monkeypatch.setattr(identities, "class_sums", _skew_classes(cells))
    cfg = CheckConfig(n_max=8)
    pair, sums = (check_identity(tag, cfg).first_failure for tag in ("bs_onevar", "class_sum"))
    assert list(pair) == ["n", "e", "lhs", "rhs"]
    assert list(sums) == ["n", "N", "lhs", "rhs"]
    assert list(sums.values()) == list(pair.values())


def test_numeric_rows_read_the_declared_pairs():
    # one declaration per pair: each numeric row holds its tag's _PAIRS pair,
    # cor_2_4 thm_2_3's at c = 1, and no pair of its own
    source = {IdentityId.COR_2_4: IdentityId.THM_2_3}
    for ident, (profiles, _key, _c_is_one) in identities._NUMERIC.items():
        assert profiles is identities._PAIRS[source.get(ident, ident)][0], ident


@pytest.mark.parametrize(
    "lhs, rhs, record",
    [
        (((1, 2), (3, -1)), ((1, 2), (3, -1)), None),
        # the least differing e is named, not a later one
        (((1, 2), (3, -1), (5, 4)), ((1, 2), (3, 7), (5, 5)), {"e": 3, "lhs": -1, "rhs": 7}),
        # an e on one side only reads 0 on the other, whichever side lacks it
        (((1, 2), (4, 1)), ((1, 2), (2, -3), (4, 1)), {"e": 2, "lhs": 0, "rhs": -3}),
        (((0, 1), (2, 5)), ((2, 5),), {"e": 0, "lhs": 1, "rhs": 0}),
    ],
    ids=["equal", "least-e", "rhs-only", "lhs-only"],
)
def test_profiles_differ_names_the_least_differing_e(lhs, rhs, record):
    assert identities._profiles_differ(lambda n: (lhs, rhs), 7) == record


def test_fault_report_keeps_range(monkeypatch):
    cfg = CheckConfig(m_max=2, q_order=10)
    passing = check_identity(IdentityId.THM_2_2_EXP, cfg)

    def broken(c, order):
        raise AlgorithmFault("constructions disagree")

    monkeypatch.setattr(identities, "series_A", broken)
    # no thm_2_2 build outlives the passing check, so the patch reaches this one
    rep = check_identity(IdentityId.THM_2_2_EXP, cfg)
    assert rep.status == "fail"
    assert rep.first_failure == {"fault": "constructions disagree"}
    assert rep.range == passing.range
    assert set(rep.range) == {"m_max", "q_order", "c_values", "part"}


# to_json_dict of thm_2_2 failures, pinned from the search over the (c, m)
# grid: c runs outermost, and m runs within the one build of each c
THM22_RECORDS = {
    "all": '"first_failure": {"c": "1", "m": 1, "q_power": 1}',
    "last": '"first_failure": {"c": "-1/2", "m": 2, "q_power": 1}',
}


@pytest.mark.parametrize("skewed_at", ["all", "last"])
@pytest.mark.parametrize("part", ["exp", "bell"])
def test_thm22_failure_reports_are_pinned(monkeypatch, part, skewed_at):
    real, built = identities.series_K, []

    def skewed(m, c, order):
        built.append(c)
        s = real(m, c, order)
        return s.scale(2) if skewed_at == "all" or (m, c) == (2, Fraction(-1, 2)) else s

    monkeypatch.setattr(identities, "series_K", skewed)
    rep = check_identity(f"thm_2_2_{part}", CheckConfig(n_max=6, q_order=10, m_max=2))
    assert json.dumps(rep.to_json_dict(), sort_keys=True) == (
        '{"elapsed_ms": null, ' + THM22_RECORDS[skewed_at] + f', "id": "thm_2_2_{part}", '
        '"mode": "exact", "range": {"c_values": ["1", "2/3", "-1/2"], "m_max": 2, '
        f'"part": "{part}", "q_order": 10}}, "status": "fail"}}'
    )
    # a failure at the first c builds no series at a later one
    last = 1 if skewed_at == "all" else 3
    assert built == [c for c in identities._C_EXACT[:last] for _m in (1, 2)]


def test_divisor_counts_come_from_the_one_table(monkeypatch):
    # bs_basic and cor_2_4's k = 1 collapse read d(n) from the shared table
    def banned(n):
        raise AssertionError("a d(n) read bypassed the divisor-count table")

    monkeypatch.setattr(identities, "divisors", banned)
    for tag in ("bs_basic", "cor_2_4"):
        assert check_identity(tag, CheckConfig(n_max=40)).status == "pass"


def _skew_two_sizes(real):
    # the partition (n - 1, 1) counted twice by (largest, #sizes), for n >= 3
    def skewed(n):
        counts = cells_of(real(n))
        if n >= 3:
            counts[n - 1, 2] = counts.get((n - 1, 2), 0) + 1
        return rows_of(counts, n)

    return skewed


# the tags whose right sides read the (largest, #sizes) counts as G_v rows,
# with the keys of their failure records
CELL_READERS = {
    "thm_2_3": PROFILE_RECORD,
    "cor_2_4": {"n", "k"} | LHS_RHS,
    "thm_2_6": PROFILE_RECORD,
    "agl_pti": PROFILE_RECORD,
    "agl_scaled": PROFILE_RECORD,
}


@pytest.mark.parametrize("skew", [_skew_one_part, _skew_two_sizes])
def test_skewed_cells_reach_every_cell_reader(monkeypatch, skew):
    # every tag first runs on the true cells; no row built then outlives its
    # run, so the skew must reach the shared kernel of every later check
    cfg = CheckConfig(n_max=6, q_order=10, m_max=2)
    assert all(check_identity(tag, cfg).passed for tag in CELL_READERS)
    real = identities.size_rows
    monkeypatch.setattr(identities, "size_rows", skew(real))
    reports = {tag: check_identity(tag, cfg) for tag in CELL_READERS}
    assert {tag for tag, rep in reports.items() if not rep.passed} == set(CELL_READERS)
    for tag in CELL_READERS:
        assert set(reports[tag].first_failure) == CELL_READERS[tag]


# -- the binomial-weight family against per-cell sums ------------------------------


@cache
def _signed_binomials(v: int) -> tuple[int, ...]:
    """(-1)^j C(v, j) for j = 0..v."""
    return tuple((-1) ** j * comb(v, j) for j in range(v + 1))


@cache
def _per_cell_sides(n: int) -> tuple:
    """The four right sides of the profile pairs that read the cells, summed
    cell by cell over the (largest l, #sizes v) counts with signed binomial
    rows: thm_2_3's and thm_2_6's as the paper states them, then agl_pti's
    and agl_scaled's."""
    binomial: dict[int, int] = {}
    shifted: dict[int, int] = {}
    pti: dict[int, int] = {}
    scaled: dict[int, int] = {}
    for (largest, v), cnt in cells_of(size_rows(n)).items():
        # sum_{j=0..v} (-1)^j C(v, j) c^(l-j), base 0 dropped
        for j, b in enumerate(_signed_binomials(v)):
            base = largest - j
            if base:
                binomial[base] = binomial.get(base, 0) + cnt * b
        # v >= 2: sum_{j<v} (-1)^j C(v-1, j) c^(l-j)
        if v >= 2:
            for j, b in enumerate(_signed_binomials(v - 1)):
                base = largest - j
                shifted[base] = shifted.get(base, 0) + cnt * b
        # c^(l-v) (c-1)^p with p = v - 1 unscaled, p = v scaled
        for p, acc in ((v - 1, pti), (v, scaled)):
            row = _signed_binomials(p)
            for i in range(p + 1):
                e = largest - v + i
                acc[e] = acc.get(e, 0) + cnt * row[p - i]
    for d in divisors(n):
        shifted[d] = shifted.get(d, 0) + 1
    return tuple(
        tuple(sorted((e, a) for e, a in acc.items() if a))
        for acc in (binomial, shifted, pti, scaled)
    )


def test_binomial_kernel_matches_per_cell_sums():
    # thm_2_3's and thm_2_6's rows view the AGL pairs; the per-cell sums
    # build thm_2_6's right side as the paper states it, divisor term and all
    tags = (IdentityId.THM_2_3, IdentityId.THM_2_6, *AGL_TAGS)
    for n in range(1, 201):
        kernel = tuple(identities._PAIRS[t][0](n)[1] for t in tags)
        assert kernel == _per_cell_sides(n), n


def test_binomial_family_overlaps():
    # read off the per-cell sums, not the kernel: thm_2_6's right side is c
    # times agl_pti's, and thm_2_3's is agl_scaled's without its constant term
    for n in range(1, 201):
        binomial, shifted, pti, scaled = _per_cell_sides(n)
        assert shifted == tuple((e + 1, a) for e, a in pti), n
        assert binomial == tuple((e, a) for e, a in scaled if e), n


# the product form below packs its coefficients in c, c^i in the signed slot
# i of SLOT bits; every coefficient met for n <= 200 lies below 2^62 in size
SLOT = 64


def _p1_product_form(n_max: int) -> list[int]:
    """The q^n coefficients, n = 0..n_max, of the generating function of P_1,

        sum_{l>=1} q^l (c - q)(c - q^2)...(c - q^(l-1)) / (q;q)_l,

    each packed in c.  A partition with largest size l and v sizes weighs
    c^(l-1) ((c-1)/c)^(v-1): the size l gives c^(l-1) q^l / (1 - q^l), each
    size j < l is absent or present with weight ((c-1)/c) q^j / (1 - q^j),
    and c^(l-1) prod_{j<l} (1 - q^j / c) = prod_{j<l} (c - q^j).  Term l + 1
    is term l times q (c - q^l) / (1 - q^(l+1)).  Coefficientwise, term l is
    at most q^l (-q;q)_(l-1) / (q;q)_l, below the overpartition count, which
    is under 2^54 at 200, so the sum over l stays under 2^62.
    """
    term = [0] + [1] * n_max  # q / (1 - q)
    total = term[:]
    for l in range(1, n_max):
        term = [0] + [(term[k] << SLOT) - (term[k - l] if k >= l else 0) for k in range(n_max)]
        for k in range(l + 1, n_max + 1):
            term[k] += term[k - l - 1]
        total = [a + b for a, b in zip(total, term)]
    return total


def _unpacked(x: int, length: int) -> tuple[int, ...]:
    """The signed slots 0..length-1 of a packed int, which holds no more."""
    out = []
    for _ in range(length):
        a = x & ((1 << SLOT) - 1)
        a -= (a >> (SLOT - 1)) << SLOT
        out.append(a)
        x = (x - a) >> SLOT
    assert x == 0
    return tuple(out)


def test_p1_row_matches_its_product_form():
    # every P(n) side is built from P_1, and G_1 is thm_2_6's divisor term
    # over c; this oracle reads no table
    packed = _p1_product_form(200)
    for n in range(1, 201):
        (g1, *_rest), (p1, _p0) = size_rows(n), identities._binomial_rows(n)
        assert p1 == _unpacked(packed[n], n + 1), n
        # the one-size partitions d + ... + d weigh c^(d-1)
        assert g1 == tuple(int(n % (e + 1) == 0) for e in range(n + 1)), n


# -- numeric mode against a 50-digit oracle ----------------------------------------


def _oracle_weights(tag: str, s: int, l: int) -> range:
    # the exponents e a partition with smallest s and largest l weights by e^z c^e
    if tag == "bs_onevar":
        return range(l - s + 1, l + 1)
    if tag == "thm_2_6":
        return range(1, s + 1)
    return range(s, s + 1)


@pytest.mark.parametrize(
    "tag, n",
    [
        (tag, n)
        for tag, worst in (("bs_onevar", 13), ("thm_2_3", 46), ("cor_2_4", 59), ("thm_2_6", 32))
        for n in (worst, 60)
    ],
)
def test_numeric_values_against_mpmath_oracle(tag, n):
    # the per-partition definition over enumerate_distinct(n), at 50 digits,
    # independent of the histogram DP and the profiles numeric mode evaluates;
    # the first n of each tag is where its relative error peaks for n <= 60
    mpmath = pytest.importorskip("mpmath")
    tally = Counter()
    for p in enumerate_distinct(n):
        tally[p.smallest, p.largest] += 1 if len(p.parts) % 2 else -1
    cfg = CheckConfig()
    c_grid = (1 + 0j,) if tag == "cor_2_4" else cfg.c_grid
    with mpmath.workdps(50):
        for z in cfg.z_grid:
            for c in c_grid:
                zm, cm = mpmath.mpc(z), mpmath.mpc(c)
                w = {e: mpmath.power(e, zm) * cm**e for e in range(1, n + 1)}
                ref = mpmath.fsum(
                    h * w[e]
                    for (s, l), h in tally.items()
                    for e in _oracle_weights(tag, s, l)
                )
                if tag == "bs_onevar":
                    sides = lhs_rhs_thm21(n, z, c)
                elif tag == "thm_2_6":
                    sides = lhs_rhs_thm26(n, z, c)
                else:
                    sides = lhs_rhs_thm23(n, z, c)
                for got in sides:
                    assert abs(mpmath.mpc(got) - ref) <= 1e-12 * abs(ref), (z, c, got)

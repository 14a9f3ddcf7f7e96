"""The command-line front end: flags, formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pie.cli import FORMATS, MAX_N, MAX_Q_ORDER, MODES, build_parser, emit_report, main
from pie.errors import AlgorithmFault
from pie.exact import BELL_DEGREE_CAP
from pie.identities import IdentityId, IdentityReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_divisor_count_rows(capsys):
    code, out, _ = run(capsys, "series", "--name", "K", "--m", "1", "--c", "1", "--order", "5")
    assert code == 0
    assert out == "1,1\n2,2\n3,2\n4,3\n5,2\n"


def test_series_symbolic_dump(capsys):
    code, out, _ = run(capsys, "series", "--name", "K", "--m", "1", "--order", "4")
    assert code == 0
    assert out.splitlines()[0] == "1,c"


def test_series_entry4_and_a_and_dilcher(capsys):
    for extra in (["--name", "entry4"], ["--name", "A"], ["--name", "dilcher", "--m", "2"]):
        code, out, _ = run(capsys, "series", *extra, "--order", "8", "--c", "1")
        assert code == 0
        assert out  # nonempty dump


def test_involution_trace_example(capsys):
    code, out, _ = run(capsys, "involution", "--n", "6", "--N-divisor", "3", "--trace")
    assert code == 0
    assert "input 4+2 N=3 case=case2" in out
    assert "output 3+2+1" in out
    assert "input 3+2+1 N=3 case=case1" in out
    assert "output 4+2" in out
    assert "class_sum=1" in out


def test_involution_summary_and_sweep(capsys):
    code, out, _ = run(capsys, "involution", "--n", "8", "--N-divisor", "3")
    assert code == 0
    assert "class_sum=0" in out
    code, out, _ = run(capsys, "involution", "--n", "10", "--N-divisor", "1", "--sweep")
    assert code == 0
    assert "sweep ok for n=10" in out


def test_involution_builds_the_histogram_at_its_n(capsys, table_builds):
    code, out, _ = run(capsys, "involution", "--n", "40", "--N-divisor", "7")
    assert code == 0
    assert out.endswith("class_sum=0\n")
    assert table_builds == {"cells": [], "windows": [40]}


def test_verify_single_identity_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "class_sum", "--n-max", "20")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["id"] == "class_sum"
    assert reports[0]["status"] == "pass"
    assert reports[0]["elapsed_ms"] is None


def test_verify_all_exact(capsys):
    code, out, _ = run(
        capsys, "verify", "--all", "--n-max", "10", "--q-order", "12", "--m-max", "2"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 18
    assert all(r["status"] == "pass" for r in reports)


def test_verify_numeric_mode(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--all",
        "--mode",
        "numeric",
        "--n-max",
        "12",
        "--z",
        "1.5,-1,0.5+0.5i",
        "--c",
        "0.4,-0.3",
    )
    assert code == 0
    reports = json.loads(out)
    assert {r["id"] for r in reports} == {"bs_onevar", "thm_2_3", "cor_2_4", "thm_2_6"}
    assert all(r["mode"] == "numeric" for r in reports)


def test_verify_failure_exit_code(capsys, skewed_binomial_profile):
    code, out, _ = run(
        capsys, "verify", "--id", "thm_2_3", "--mode", "numeric", "--n-max", "25"
    )
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["status"] == "fail"
    assert reports[0]["first_failure"] is not None


def test_verify_unknown_tag_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--id", "bogus")
    assert code == 2
    assert "unknown identity tag" in err


def test_bad_flags_exit_two(capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "series", "--name", "WRONG")[0] == 2
    # a sweep prints no traces, so --trace beside it is refused, not dropped
    code, out, err = run(capsys, "involution", "--n", "6", "--N-divisor", "1", "--sweep", "--trace")
    assert (code, out) == (2, "")
    assert "argument --trace: not allowed with argument --sweep" in err


@pytest.mark.parametrize(
    "argv",
    [("--N-divisor", "1", "--sweep"), ("--N-divisor", "3", "--trace"), ("--N-divisor", "3")],
    ids=["sweep", "trace", "listing"],
)
def test_a_faulting_involution_run_leaves_the_output_file(tmp_path, capsys, monkeypatch, argv):
    from pie import involution

    def faulting(*args):
        raise AlgorithmFault("injected")

    target = tmp_path / "pairs.txt"
    target.write_text("kept\n")
    monkeypatch.setattr(involution, "_pair_mask", faulting)
    code, out, err = run(capsys, "involution", "--n", "6", *argv, "--output", str(target))
    assert (code, out) == (1, "")
    assert "algorithm fault: injected" in err
    assert target.read_text() == "kept\n"


def test_n_max_guard(capsys):
    code, _, err = run(capsys, "verify", "--id", "bs_basic", "--n-max", "9999")
    assert code == 2
    assert "n-max" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("report-all", "--n-max", "5", "--q-order", "3"),
        ("verify", "--all", "--n-max", "5", "--q-order", "1"),
    ],
    ids=["report-all", "verify-all"],
)
def test_q_order_below_thm_1_2_k_max_names_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "q-order" in err and "thm_1_2" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--name", "dilcher", "--m", "4", "--order", "2"), "--order"),
        (("--name", "dilcher", "--m", "7"), "--m"),
        (("--name", "dilcher", "--m", "0"), "--m"),
        (("--name", "M", "--m", "-1"), "--m"),
        (("--name", "K", "--m", "0"), "--m"),
    ],
    ids=["dilcher-order-below-m", "dilcher-m-7", "dilcher-m-0", "M-m-negative", "K-m-0"],
)
def test_series_errors_name_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, "series", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and flag in err


def test_output_file_and_formats(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--id", "bs_basic", "--n-max", "15", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data[0]["status"] == "pass"

    code, out, _ = run(
        capsys, "verify", "--id", "bs_basic", "--n-max", "15", "--format", "text"
    )
    assert code == 0
    assert out.startswith("PASS bs_basic [exact]")

    code, out, _ = run(
        capsys, "verify", "--id", "bs_basic", "--n-max", "15", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "id,mode,status,elapsed_ms,first_failure"


def test_byte_identical_reruns(capsys):
    args = ("verify", "--id", "cor_2_5", "--n-max", "40")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.endswith("\n")


def test_timings_flag_populates_elapsed(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "bs_basic", "--n-max", "10", "--timings"
    )
    assert code == 0
    assert json.loads(out)[0]["elapsed_ms"] is not None


def test_text_timings_carry_the_json_elapsed_ms():
    # with timings each text line carries elapsed_ms as json rounds it
    reports = [
        IdentityReport(IdentityId.BS_BASIC, "exact", {}, "pass", None, 1.23456),
        IdentityReport(IdentityId.COR_2_4, "numeric", {}, "fail", {"n": 3}, 0.0004),
    ]
    texts = {}
    for timings in (False, True):
        emit_report(reports, "text", sink := io.StringIO(), timings=timings)
        texts[timings] = sink.getvalue()
    assert texts[False] == 'PASS bs_basic [exact]\nFAIL cor_2_4 [numeric] {"n": 3}\n'
    assert texts[True] == (
        'PASS bs_basic [exact] 1.235 ms\nFAIL cor_2_4 [numeric] 0.0 ms {"n": 3}\n'
    )
    emit_report(reports, "json", sink := io.StringIO(), timings=True)
    assert [d["elapsed_ms"] for d in json.loads(sink.getvalue())] == [1.235, 0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--id", "bs_basic", "--n-max", "10"),
        ("report-all", "--n-max", "6", "--q-order", "12"),
    ],
    ids=["verify", "report-all"],
)
def test_text_format_prints_timings(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "text", "--timings")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == (1 if argv[0] == "verify" else 22)
    line = re.compile(r"PASS \w+ \[(exact|numeric)\] \d+\.\d{1,3} ms")
    assert all(map(line.fullmatch, lines))


def test_verify_and_report_all_share_the_run_flags():
    parser = build_parser()
    names = ("n_max", "q_order", "format", "output", "timings")
    shared = ("--n-max", "9", "--q-order", "14", "--format", "csv", "--output", "o.csv", "--timings")
    for flags in ((), shared):
        verify = vars(parser.parse_args(["verify", "--id", "bs_basic", *flags]))
        report = vars(parser.parse_args(["report-all", *flags]))
        assert [verify[k] for k in names] == [report[k] for k in names]
    assert [report[k] for k in names] == [9, 14, "csv", "o.csv", True]
    assert set(report) == {"command", "handler", *names}  # report-all gains no flag


def test_report_all_takes_no_m_max(capsys):
    code, out, err = run(capsys, "report-all", "--m-max", "3")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --m-max 3" in err


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("PIE_N_MAX", "7")
    code, out, _ = run(capsys, "verify", "--id", "bs_basic")
    assert code == 0
    assert json.loads(out)[0]["range"]["n_max"] == 7
    # flag wins over environment
    code, out, _ = run(capsys, "verify", "--id", "bs_basic", "--n-max", "9")
    assert json.loads(out)[0]["range"]["n_max"] == 9


def test_report_all(capsys):
    code, out, _ = run(
        capsys, "report-all", "--n-max", "8", "--q-order", "12", "--format", "text"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 22  # 18 exact + 4 numeric
    assert all(line.startswith("PASS") for line in lines)


# sha256 of the csv and text renderings, a passing report-all and a failing
# numeric verify; pinned so that the lazy csv import changes neither
REPORT_DIGESTS = {
    ("pass", "csv"): "364320a15e65cd122be17a261cae009d685eafcc8367a94d73b40a71e20f4b01",
    ("pass", "text"): "fd846494a1411f3556e72aef868ea2e3507278621449b4e2f1a2530f6c913721",
    ("fail", "csv"): "38fecf5b5a579855a1254ec68fef6c04c2ce9deb89cd3b42f57914e3046bfe47",
    ("fail", "text"): "ff524203fed2e33ca475f0abdf65791f015c4b9fc56926a5b211549e07fb9cc2",
}


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_reports_keep_their_digests(capsys, request, fmt):
    code, out, _ = run(capsys, "report-all", "--n-max", "12", "--q-order", "12", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS["pass", fmt]
    request.getfixturevalue("skewed_binomial_profile")
    code, out, _ = run(
        capsys, "verify", "--all", "--mode", "numeric", "--n-max", "12", "--format", fmt
    )
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS["fail", fmt]


def test_cor_2_4_numeric_holds_past_n_59(capsys):
    # the per-partition float sums used to lose 1e-8 to cancellation at n=59
    code, out, _ = run(
        capsys, "verify", "--id", "cor_2_4", "--mode", "numeric", "--n-max", "60"
    )
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


@pytest.mark.parametrize(
    "argv, env",
    [
        (("verify", "--id", "bs_basic", "--n-max", "0"), {}),
        (("verify", "--id", "bs_basic", "--q-order", "0"), {}),
        (("verify", "--id", "bs_basic", "--m-max", "-1"), {}),
        (("verify", "--id", "bs_basic", "--tol", "0"), {}),
        (("report-all", "--n-max", "0"), {}),
        (("series", "--name", "K", "--order", "0"), {}),
        (("verify", "--id", "bs_basic"), {"PIE_N_MAX": "0"}),
        (("verify", "--id", "bs_basic"), {"PIE_TOLERANCE": "0"}),
        (("series", "--name", "K"), {"PIE_Q_ORDER": "0"}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--z", ""), {}),
        (("verify", "--id", "bs_basic", "--n-max", "3"), {"PIE_FORMAT": "bogus"}),
        (("report-all", "--n-max", "3"), {"PIE_FORMAT": "bogus"}),
        (("verify", "--id", "bs_basic", "--n-max", "3"), {"PIE_MODE": "fuzzy"}),
        (("series", "--name", "A", "--c", "1/0", "--order", "5"), {}),
        (("involution", "--n", "101", "--N-divisor", "1", "--sweep"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--z", "nan"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--c", "nan+1j"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--z", "1e400"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--z", "1,-inf"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--tol", "inf"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--tol", "1e308"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--tol", "1"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--tol", "nan"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3"), {"PIE_Z": "nan"}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3"), {"PIE_C": "0.5,1e400j"}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3"), {"PIE_TOLERANCE": "inf"}),
        (("report-all", "--n-max", "3"), {"PIE_Z": "nan"}),
        (("report-all", "--n-max", "3"), {"PIE_C": "inf"}),
        (("report-all", "--n-max", "3"), {"PIE_TOLERANCE": "1e308"}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--z", "1e308", "--c", "0.5"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3", "--c", "1e300"), {}),
        (("verify", "--id", "thm_2_6", "--mode", "numeric", "--n-max", "60", "--z", "200"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3"), {"PIE_Z": "1e308"}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "3"), {"PIE_C": "1e300"}),
        (("report-all", "--n-max", "3"), {"PIE_Z": "1e308"}),
        (("report-all", "--n-max", "3"), {"PIE_C": "0.5,1e300"}),
        (("verify", "--id", "thm_2_6", "--mode", "numeric", "--n-max", "60", "--z", "170", "--c", "5"), {}),
        (("verify", "--id", "bs_onevar", "--mode", "numeric", "--n-max", "60", "--z", "150", "--c", "30"), {}),
        (("report-all", "--n-max", "60", "--q-order", "8"), {"PIE_Z": "170", "PIE_C": "5"}),
        (("report-all", "--n-max", "60", "--q-order", "8"), {"PIE_Z": "150", "PIE_C": "30"}),
        (("verify", "--id", "bs_basic", "--q-order", "301"), {}),
        (("report-all", "--n-max", "3"), {"PIE_Q_ORDER": "301"}),
        (("series", "--name", "K", "--order", "301"), {}),
        (("verify", "--id", "eq_1_13", "--m-max", "1000"), {}),
        (("report-all",), {"PIE_M_MAX": "11"}),
    ],
    ids=[
        "n-max-0",
        "q-order-0",
        "m-max-negative",
        "tol-0",
        "report-all-n-max-0",
        "series-order-0",
        "env-n-max-0",
        "env-tolerance-0",
        "env-series-order-0",
        "empty-z-grid",
        "env-format-bogus",
        "report-all-env-format-bogus",
        "env-mode-bogus",
        "series-c-zero-denominator",
        "involution-n-above-bound",
        "z-nan",
        "c-nan-real-part",
        "z-overflows-to-inf",
        "z-grid-with-minus-inf",
        "tol-inf",
        "tol-1e308",
        "tol-1",
        "tol-nan",
        "env-z-nan",
        "env-c-overflows-to-inf",
        "env-tolerance-inf",
        "report-all-env-z-nan",
        "report-all-env-c-inf",
        "report-all-env-tolerance-1e308",
        "z-power-overflows",
        "c-power-overflows",
        "z-200-overflows-at-n-max-60",
        "env-z-power-overflows",
        "env-c-power-overflows",
        "report-all-env-z-power-overflows",
        "report-all-env-c-power-overflows",
        "thm-2-6-term-overflows",
        "bs-onevar-term-overflows",
        "report-all-env-term-overflows-z-170-c-5",
        "report-all-env-term-overflows-z-150-c-30",
        "q-order-301",
        "env-q-order-301",
        "series-order-301",
        "eq-1-13-m-max-1000",
        "report-all-env-m-max-11",
    ],
)
def test_zero_or_empty_settings_are_usage_errors(capsys, monkeypatch, argv, env):
    # a value that is present is validated, never replaced by a default or
    # read as some other choice
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv, env, flag",
    [
        (("report-all", "--n-max", "5", "--q-order", "3000"), {}, "q-order"),
        (("report-all",), {"PIE_Q_ORDER": "301"}, "q-order"),
        (("verify", "--id", "entry4", "--q-order", "301"), {}, "q-order"),
        (("series", "--name", "entry4", "--order", "20000"), {}, "order"),
        (("series", "--name", "A"), {"PIE_Q_ORDER": "301"}, "order"),
    ],
    ids=["report-all-3000", "report-all-env-301", "verify-301", "series-20000", "series-env-301"],
)
def test_q_order_above_the_cap_names_the_flag(capsys, monkeypatch, argv, env, flag):
    # any q-order the command line accepts finishes; a larger one exits 2 at once
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {flag} must lie in 1..300")


def test_q_order_at_the_cap_runs(capsys):
    code, out, _ = run(capsys, "verify", "--id", "entry4", "--q-order", "300")
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


@pytest.mark.parametrize(
    "argv, point",
    [
        (("--id", "bs_onevar", "--n-max", "3", "--z", "1e308", "--c", "0.5"), "z=(1e+308+0j)"),
        (("--id", "bs_onevar", "--n-max", "3", "--c", "1e300"), "c=(1e+300+0j)"),
        (("--id", "thm_2_6", "--n-max", "60", "--z", "1.5,200"), "z=(200+0j)"),
        (("--id", "thm_2_6", "--n-max", "60", "--z", "170", "--c", "5"), "n=44, z=(170+0j), c=(5+0j)"),
    ],
    ids=["z", "c", "z-second-grid-point", "term"],
)
def test_power_overflow_names_the_point(capsys, argv, point):
    code, out, err = run(capsys, "verify", "--mode", "numeric", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and point in err


def test_largest_z_below_overflow_passes(capsys):
    # 60^170 is about 1e302, still a double
    code, out, _ = run(
        capsys, "verify", "--id", "thm_2_6", "--mode", "numeric", "--n-max", "60", "--z", "170"
    )
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


def test_report_all_bytes_stable_across_processes():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIE_")}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["PIE_Z"] = "1.25-0.5j,-1.5+0.25j,0.75,-0.5+0.5j"
    env["PIE_C"] = "0.5+0.25j,-0.6,0.3-0.4j,0.1+0.7j"
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "pie", "report-all", "--n-max", "20", "--q-order", "12"],
            env={**env, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    reports = json.loads(outs[0])
    assert len(reports) == 22
    numeric = [r for r in reports if r["mode"] == "numeric"]
    assert all(r["range"]["z_grid"][0] == "(1.25-0.5j)" for r in numeric)


# -- the run settings, by flag and by environment -------------------------------


def run_isolated(argv, env):
    """main(argv) with exactly the given PIE_* variables set: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        for name in [k for k in os.environ if k.startswith("PIE_")]:
            patch.delenv(name)
        for name, value in env.items():
            patch.setenv(name, value)
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _first_range(key):
    return lambda out: json.loads(out)[0]["range"][key]


def _shape(out):
    """The format a passing one-report output was written in."""
    if out.startswith("["):
        return "json"
    return "csv" if out.startswith("id,mode,") else "text"


def _bounded(high):
    return st.integers(min_value=1, max_value=high).map(str)


def _not_in(high):
    # out of range, not an int, empty, nan and inf
    words = st.sampled_from(["", " ", "abc", "1.5", "1e3", "nan", "inf", "-inf", "0x10"])
    return st.one_of(
        st.integers(max_value=0).map(str), st.integers(min_value=high + 1).map(str), words
    )


def _other_than(choices):
    # text an environment variable can hold
    text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
    words = st.sampled_from(["", "nan", "inf", "JSON"])
    return st.one_of(words, text.filter(lambda t: t not in choices))


class RunSetting(NamedTuple):
    env: str  # its environment variable
    argv: tuple  # a cheap verify run that reports it
    parse: Callable  # the value a text stands for
    shown: Callable  # the value as the run's output shows it
    valid: st.SearchStrategy
    invalid: st.SearchStrategy


RUN_SETTINGS = {
    "n-max": RunSetting(
        "PIE_N_MAX", ("--id", "bs_basic"), int, _first_range("n_max"),
        _bounded(MAX_N), _not_in(MAX_N),
    ),
    "q-order": RunSetting(
        "PIE_Q_ORDER", ("--id", "uchimura_triple"), int, _first_range("q_order"),
        _bounded(MAX_Q_ORDER), _not_in(MAX_Q_ORDER),
    ),
    "m-max": RunSetting(
        "PIE_M_MAX", ("--id", "eq_1_13", "--n-max", "3"), int, _first_range("m_max"),
        _bounded(BELL_DEGREE_CAP), _not_in(BELL_DEGREE_CAP),
    ),
    "tol": RunSetting(
        "PIE_TOLERANCE", ("--id", "bs_onevar", "--mode", "numeric", "--n-max", "3"), float,
        _first_range("tolerance"),
        st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True).map(repr),
        st.one_of(
            st.floats(max_value=0).map(repr),
            st.floats(min_value=1).map(repr),
            st.sampled_from(["nan", "", "abc", "1/2"]),
        ),
    ),
    "format": RunSetting(
        "PIE_FORMAT", ("--id", "bs_basic", "--n-max", "3"), str, _shape,
        st.sampled_from(FORMATS), _other_than(FORMATS),
    ),
    "mode": RunSetting(
        "PIE_MODE", ("--id", "bs_onevar", "--n-max", "3"), str,
        lambda out: json.loads(out)[0]["mode"],
        st.sampled_from(MODES), _other_than(MODES),
    ),
}
SETTING_NAMES = sorted(RUN_SETTINGS)


def _setting_case(pick):
    """(flag, a case drawn from pick(its RunSetting))."""
    return st.sampled_from(SETTING_NAMES).flatmap(
        lambda flag: st.tuples(st.just(flag), pick(RUN_SETTINGS[flag]))
    )


def _run_setting(flag, text, from_env):
    """The flag's cheap verify run, text given as the flag or as its variable."""
    row = RUN_SETTINGS[flag]
    if from_env:
        return run_isolated(("verify", *row.argv), {row.env: text})
    return run_isolated(("verify", *row.argv, f"--{flag}={text}"), {})


@settings(max_examples=60, deadline=None)
@given(_setting_case(lambda row: row.valid), st.booleans())
def test_a_valid_setting_reaches_the_report(case, from_env):
    flag, text = case
    code, out, err = _run_setting(flag, text, from_env)
    assert (code, err) == (0, "")
    assert RUN_SETTINGS[flag].shown(out) == RUN_SETTINGS[flag].parse(text)


@settings(max_examples=150, deadline=None)
@given(_setting_case(lambda row: row.invalid), st.booleans())
def test_an_invalid_setting_exits_two_and_names_it(case, from_env):
    code, out, err = _run_setting(*case, from_env)
    assert (code, out) == (2, "")
    assert case[0] in err


@settings(max_examples=60, deadline=None)
@given(_setting_case(lambda row: st.tuples(row.valid, st.one_of(row.valid, row.invalid))))
def test_a_flag_overrides_its_environment_value(case):
    # the environment value is never read, so even an invalid one is harmless
    flag, (text, env_text) = case
    row = RUN_SETTINGS[flag]
    code, out, err = run_isolated(("verify", *row.argv, f"--{flag}={text}"), {row.env: env_text})
    assert (code, err) == (0, "")
    assert row.shown(out) == row.parse(text)

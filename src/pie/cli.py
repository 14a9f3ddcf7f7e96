"""Command-line front end: batch verification, series dumps, pairing traces.

Configuration precedence: flags override PIE_* environment variables, which
override built-in defaults.  Exit codes: 0 all checks pass, 1 any failure or
internal fault, 2 usage error.  Output is byte-stable for a fixed
configuration; wall-clock timings are emitted only under --timings.

Each command imports only the layers it runs, inside its handler:
involution loads the pairing and partitions, series the exact and series
layers, and verify and report-all the identity registry, which brings in
every layer but the pairing.  `import pie.cli` itself loads only this module
and errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .errors import AlgorithmFault

MAX_N = 200
# a pairing sweep walks all of D(n): 0.17-0.21 s at |D(80)| = 77,312 and 0.76-0.86 s at
# |D(100)| = 444,793 (whole process, no bytecode cache, medians of 3 runs in each of four
# rounds, shared 2-vCPU host, Python 3.11); |D(200)| = 487,067,746 would take hours
MAX_INVOLUTION_N = 100
# report-all at --q-order 300 takes about 0.5 s at --n-max 12 (long-q) and 0.9 s at --n-max 200,
# the largest range CI runs (medians of 18 and 6 runs of byte-compiled sources, shared 2-vCPU
# host, Python 3.11)
MAX_Q_ORDER = 300
FORMATS = ("json", "csv", "text")
MODES = ("exact", "numeric")


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace(" ", "").replace("i", "j"))


def _parse_c_value(text: str):
    from fractions import Fraction

    from .exact import C

    if text.strip().lower() == "symbolic":
        return C
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"--c {text!r} has a zero denominator") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pie",
        description="verify weighted partition identities with exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the run settings verify and report-all share
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--n-max", type=int, default=None)
    runs.add_argument("--q-order", type=int, default=None)
    runs.add_argument("--format", choices=FORMATS, default=None)
    runs.add_argument("--output", default=None)
    runs.add_argument("--timings", action="store_true")

    verify = sub.add_parser("verify", parents=[runs], help="run identity checks")
    verify.set_defaults(handler=_cmd_verify)
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", dest="ident", help="identity tag to check")
    group.add_argument("--all", action="store_true", help="check every identity")
    verify.add_argument("--m-max", type=int, default=None)
    verify.add_argument("--mode", choices=MODES, default=None)
    verify.add_argument("--z", default=None, help="comma-separated complex grid")
    verify.add_argument("--c", default=None, help="comma-separated complex grid")
    verify.add_argument("--tol", type=float, default=None)

    series = sub.add_parser("series", help="dump series coefficients as CSV")
    series.set_defaults(handler=_cmd_series)
    series.add_argument(
        "--name", required=True, choices=("entry4", "M", "K", "A", "dilcher")
    )
    series.add_argument("--order", type=int, default=None)
    series.add_argument("--m", type=int, default=1)
    series.add_argument("--c", default="symbolic", help="rational value or 'symbolic'")
    series.add_argument("--output", default=None)

    inv = sub.add_parser("involution", help="trace or sweep the pairing")
    inv.set_defaults(handler=_cmd_involution)
    inv.add_argument("--n", type=int, required=True)
    inv.add_argument("--N-divisor", dest="modulus", type=int, required=True)
    shown = inv.add_mutually_exclusive_group()
    shown.add_argument("--trace", action="store_true")
    shown.add_argument("--sweep", action="store_true", help="sweep every N up to n")
    inv.add_argument("--output", default=None)

    rep = sub.add_parser("report-all", parents=[runs], help="full manifest of every check")
    rep.set_defaults(handler=_cmd_report_all)
    return parser


def _setting(args: argparse.Namespace, flag: str, env_name: str, parse, default):
    # a flag or env value that is present is used as given, never defaulted
    value = getattr(args, flag, None)
    if value is not None:
        return value
    text = os.environ.get(f"PIE_{env_name}")
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:  # int("") and float("x") name no setting
        raise ValueError(f"{flag.replace('_', '-')} from PIE_{env_name}: {exc}") from None


def _choice(choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
        return text

    return parse


def _within(name: str, value: int, high: int) -> int:
    if not 1 <= value <= high:
        raise ValueError(f"{name} must lie in 1..{high}, got {value}")
    return value


def _tolerance(value: float) -> float:
    # a relative tolerance of 1 or more, inf included, passes every numeric
    # check; nan fails both comparisons
    if not 0 < value < 1:
        raise ValueError(f"tol must lie in (0, 1), got {value}")
    return value


def _grid(name: str, text: str) -> tuple[complex, ...]:
    import cmath

    grid = tuple(_parse_complex(tok) for tok in text.split(",") if tok.strip())
    if not grid:
        raise ValueError(f"the {name} grid is empty")
    if not all(map(cmath.isfinite, grid)):
        raise ValueError(f"the {name} grid has a non-finite point")
    return grid


def _config_from(args: argparse.Namespace) -> CheckConfig:
    from .exact import BELL_DEGREE_CAP
    from .identities import CheckConfig

    cfg = CheckConfig()
    n_max = _within("n-max", _setting(args, "n_max", "N_MAX", int, cfg.n_max), MAX_N)
    q_order = _setting(args, "q_order", "Q_ORDER", int, cfg.q_order)
    z_text = _setting(args, "z", "Z", str, None)
    c_text = _setting(args, "c", "C", str, None)
    return CheckConfig(
        n_max=n_max,
        q_order=_within("q-order", q_order, MAX_Q_ORDER),
        m_max=_within("m-max", _setting(args, "m_max", "M_MAX", int, cfg.m_max), BELL_DEGREE_CAP),
        mode=_setting(args, "mode", "MODE", _choice(MODES), cfg.mode),
        tolerance=_tolerance(_setting(args, "tol", "TOLERANCE", float, cfg.tolerance)),
        z_grid=cfg.z_grid if z_text is None else _grid("z", z_text),
        c_grid=cfg.c_grid if c_text is None else _grid("c", c_text),
    )


@contextmanager
def _sink(args: argparse.Namespace):
    path = _setting(args, "output", "OUTPUT", str, None)
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as sink:
            yield sink


def emit_report(reports, fmt: str, sink, timings: bool = False) -> None:
    """Serialize reports bit-stably: sorted keys, fixed order, LF endings."""
    import json

    dicts = [r.to_json_dict(include_timing=timings) for r in reports]
    if fmt == "json":
        sink.write(json.dumps(dicts, sort_keys=True, indent=2) + "\n")
        return
    if fmt == "csv":
        import csv

        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["id", "mode", "status", "elapsed_ms", "first_failure"])
    for d in dicts:
        failure = d["first_failure"]
        failure = "" if failure is None else json.dumps(failure, sort_keys=True)
        if fmt == "csv":
            # csv writes None, the elapsed_ms of a run without --timings, as ""
            writer.writerow([d["id"], d["mode"], d["status"], d["elapsed_ms"], failure])
        else:
            mark = "PASS" if d["status"] == "pass" else "FAIL"
            ms = "" if d["elapsed_ms"] is None else f" {d['elapsed_ms']} ms"
            sink.write(f"{mark} {d['id']} [{d['mode']}]{ms}{failure and ' ' + failure}\n")


def _emit(args: argparse.Namespace, run) -> int:
    """Run the checks and write their reports; exit 1 if any failed."""
    fmt = _setting(args, "format", "FORMAT", _choice(FORMATS), "json")
    reports = run()
    with _sink(args) as sink:
        emit_report(reports, fmt, sink, timings=args.timings)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import NUMERIC_CAPABLE, IdentityId, _run_checks

    cfg = _config_from(args)
    idents = [args.ident]
    if args.all:  # in numeric mode, every tag with a numeric form
        idents = [i for i in IdentityId if cfg.mode == "exact" or i in NUMERIC_CAPABLE]
    return _emit(args, lambda: _run_checks([(i, cfg) for i in idents]))


def _cmd_series(args: argparse.Namespace) -> int:
    import csv

    from .exact import BELL_DEGREE_CAP
    from .series import K_FOLD_CAP, coefficient_rows, series_A, series_K, series_M
    from .series import series_dilcher_binomial, series_entry4

    order = _within("order", _setting(args, "order", "Q_ORDER", int, 30), MAX_Q_ORDER)
    c, name, m = _parse_c_value(args.c), args.name, args.m
    # the builders' errors name their parameters (dilcher's k is --m), not the flags
    bounds = {"M": (0, BELL_DEGREE_CAP), "K": (1, BELL_DEGREE_CAP), "dilcher": (1, K_FOLD_CAP)}
    least, most = bounds.get(name, (m, m))
    if not least <= m <= most:
        raise ValueError(f"--m must lie in {least}..{most} for {name}, got {m}")
    if name == "dilcher" and order < m:
        raise ValueError(f"--order must be at least --m = {m} for dilcher, got {order}")
    result = {
        "A": lambda: series_A(c, order),
        "M": lambda: series_M(m, c, order),
        "K": lambda: series_K(m, c, order),
        "entry4": lambda: series_entry4(c, order)[0],
        "dilcher": lambda: series_dilcher_binomial(m, order)[0],
    }[name]()
    with _sink(args) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        for power, coeff in coefficient_rows(result):
            writer.writerow([power, coeff])
    return 0


def _cmd_involution(args: argparse.Namespace) -> int:
    from .involution import class_members, pair, trace_lines, verify_pairings
    from .partitions import _size_tables, class_sum

    n, N = args.n, args.modulus
    _within("n", n, MAX_INVOLUTION_N)
    if not 1 <= N <= n:
        raise ValueError("need 1 <= N-divisor <= n")
    _size_tables(n)
    # every line is made before the sink opens, so a fault leaves --output as it was
    lines = []
    if args.sweep:
        for modulus, counts in verify_pairings(n, range(1, n + 1)).items():
            total, expected = class_sum(n, modulus), int(n % modulus == 0)
            if total != expected:
                raise AlgorithmFault(f"class sum {total} != {expected} at n={n}, N={modulus}")
            lines.append(
                f"N={modulus} members={counts['members']} "
                f"fixed={counts['fixed']} class_sum={total}"
            )
        lines.append(f"sweep ok for n={n}")
    else:
        verify_pairings(n, (N,))
        for p in class_members(n, N):
            trace = pair(p, N)
            if args.trace:
                lines += trace_lines(trace)
            else:
                target = "fixed" if trace.is_fixed else str(trace.output)
                lines.append(f"{p} -> {target} ({trace.case})")
        lines.append(f"class_sum={class_sum(n, N)}")
    with _sink(args) as sink:
        sink.writelines(line + "\n" for line in lines)
    return 0


def _cmd_report_all(args: argparse.Namespace) -> int:
    from .identities import run_all

    cfg = _config_from(args)
    return _emit(args, lambda: run_all(cfg))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AlgorithmFault as exc:
        print(f"algorithm fault: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1


def run(argv: list[str] | None = None) -> int:
    """The process entry: `python -m pie` and the `pie` script end here.

    It runs `main` and then freezes the collector, so the interpreter's
    shutdown collections skip every object still alive instead of walking
    the whole heap; the operating system takes the pages back at exit.
    `atexit` handlers and the flush of stdout still run.  Call `main` to run
    a command in process: it leaves the collector as it found it.
    """
    status = main(argv)
    import gc

    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())

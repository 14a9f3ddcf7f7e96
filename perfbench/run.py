#!/usr/bin/env python3
"""pie's benchmark: cold ``pie`` processes, checked outputs, per-layer traces.

Usage (from the root of a source checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  One ``pie`` child process runs at
a time and the next starts only after it exits; no thread makes load (the
speed probe's one helper thread only times itself, see below).  Every
repetition is a fresh process, because ``distinct_stats``,
``partitions_by_largest_and_sizes`` and ``_unit_tails`` are ``lru_cache``d
and a command-line user pays those caches cold on every run.

Workloads (see WORKLOADS):
    desk    pie report-all --n-max 40 --q-order 25
    wide-n  pie report-all --n-max 60 --q-order 12
    deep-q  pie report-all --n-max 12 --q-order 60
    sweep   pie involution --n 60 --N-divisor 1 --sweep
Stretch scale (``--n-max 200 --q-order 80``) is not a workload: it cannot
finish until the signed histogram DP of ROADMAP item 1 lands.

Seed: 0 runs the built-in z and c grids.  Any other seed draws a 4-point z
grid (Re z in [-2, 1.5], |Im z| <= 0.5) and a 4-point c grid (|c| <= 0.72)
and hands them to ``pie`` only through PIE_Z and PIE_C.  The amount of work
does not depend on the seed.  ``sweep`` has no seeded input.

--trace 0 measures the end-to-end metrics.  It times interpreter start plus
``import pie.cli`` several times (``setup_s``), then runs the workload in
fresh processes for about --seconds seconds (at least one).  Medians,
quartiles and sample counts are printed per metric.

The times it reports are taken at a reference host speed.  A shared host
runs one CPU at speeds that differ by up to 2x from one few-second stretch to
the next, so times measured minutes apart spread more than any useful bound.
The benchmark and its children are therefore pinned to one CPU, on which a
speed probe (SpeedProbe) times a fixed burst of interpreter work every
PROBE_INTERVAL_S.  A child's wall and CPU time are multiplied by
PROBE_REFERENCE_S over the mean burst time measured while the child ran
(or, for a child shorter than PROBE_MIN_WINDOW_S, around it):
``wall_s``, ``cpu_s`` and ``setup_s`` are the seconds the child would take
on a host where one burst takes PROBE_REFERENCE_S.  The probe runs on the
child's CPU, so the children give up about 6% of it; the times as measured
are printed beside the reported ones.

--trace 1 runs the workload once untraced and twice under
``perfbench/traced_pie.py``, which times the calls into each layer from
outside without changing ``src/pie``.  It prints the per-layer metrics, the
tracing overhead (traced wall time minus untraced), and which end-to-end
metric each layer metric should move on which workload (LAYER_CLAIMS).  The
spans are written to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Correctness, checked on every run:
  * every report's status is read from the manifest; all 18 tags are
    theorems, so a ``fail`` counts in ``checks_failed`` (the ``failed`` field)
    and is never filtered out;
  * the exit code is 1 if and only if a report failed; any other exit code,
    a crash or an unreadable manifest fails the benchmark;
  * the manifest covers every (tag, mode) once and echoes the requested
    range and grids;
  * ``sweep`` is checked against an oracle computed here: class_sum = 1 and
    one fixed point iff N | 60, class sizes from an independent enumeration
    of D(60), and the closing ``sweep ok for n=60`` line;
  * every manifest of one run is byte-identical, traced or not;
  * the deterministic counters of the two traced processes are identical.
A failed check prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (checks run), ``failed`` (checks failed) and
``metrics``.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 21
RUN_BUDGET_S = 170.0
PROBE_INTERVAL_S = 0.025
PROBE_REFERENCE_S = 1.0e-3
PROBE_MIN_WINDOW_S = 0.25


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    seeded: bool


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "desk": Workload(("report-all", "--n-max", "40", "--q-order", "25"), seeded=True),
    "wide-n": Workload(("report-all", "--n-max", "60", "--q-order", "12"), seeded=True),
    "deep-q": Workload(("report-all", "--n-max", "12", "--q-order", "60"), seeded=True),
    "sweep": Workload(("involution", "--n", "60", "--N-divisor", "1", "--sweep"), seeded=False),
}

TAGS = (
    "bs_basic", "bs_int", "bs_onevar", "uchimura_triple", "entry4",
    "dilcher_cm", "eq_1_13", "thm_1_2", "thm_2_2_exp", "thm_2_2_bell",
    "thm_2_3", "cor_2_4", "cor_2_5", "thm_2_6", "cor_2_7", "agl_pti",
    "agl_scaled", "class_sum",
)
NUMERIC_TAGS = ("bs_onevar", "thm_2_3", "cor_2_4", "thm_2_6")
REPORTS = tuple((t, "exact") for t in TAGS) + tuple((t, "numeric") for t in NUMERIC_TAGS)

# Metric names and units come from BENCHMARK.json; a name listed there that
# layer_metrics or measure_end_to_end does not produce is an error.
COUNT_UNITS = ("count", "bytes", "ratio")


def load_spec() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
    return pairs("end_to_end"), pairs("per_layer")


# Written down before measuring: layer metric -> (end-to-end metrics it
# should move, workloads where it should, workloads where it should stay flat).
LAYER_CLAIMS = (
    ("partitions.self_s distinct_stats_misses triples_built",
     "wall_s peak_rss_mb", "wide-n", "deep-q"),
    ("partitions.partitions_yielded reenumeration_ratio", "wall_s", "sweep", "deep-q"),
    ("exact.complex_power_calls complex_power_s complex_power_unique_ratio",
     "wall_s", "wide-n desk", "deep-q"),
    ("exact.cpoly_ops cpoly_s bell_s", "wall_s", "deep-q", "wide-n sweep"),
    ("series.mul_calls inverse_calls exp_calls self_s", "wall_s", "deep-q", "wide-n sweep"),
    ("involution.pair_calls class_sum_s self_s", "wall_s", "sweep", "deep-q"),
    ("identities.self_s identities.<tag>.<mode>_s", "wall_s", "wide-n desk", "-"),
    ("cli.emit_s manifest_bytes", "wall_s (negligible)", "all", "-"),
)


class BenchError(Exception):
    """A correctness or environment failure that invalidates the run."""


# -- child processes ----------------------------------------------------------


@dataclass
class Child:
    start: float  # perf_counter at spawn
    end: float  # perf_counter at exit
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(argv: list[str], env: dict, timeout: float) -> Child:
    """Run one process to exit; wall time is spawn to exit, usage from wait4."""
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next process")
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            start=t0,
            end=t1,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )


def child_env(grids: tuple[str, str] | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if grids is not None:
        env["PIE_Z"], env["PIE_C"] = grids
    return env


# -- inputs -------------------------------------------------------------------


DEFAULT_Z = "1.5,-1,-2,0.5+0.5j"
DEFAULT_C = "0.4,-0.3,0.4-0.3j,0.2+0.7j"


def seeded_grids(seed: int) -> tuple[str, str] | None:
    """PIE_Z and PIE_C for a nonzero seed, from the region the defaults span."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    zs = [complex(rng.uniform(-2.0, 1.5), rng.uniform(-0.5, 0.5)) for _ in range(4)]
    cs = [cmath.rect(0.72 * rng.random() ** 0.5, rng.uniform(-cmath.pi, cmath.pi)) for _ in range(4)]
    fmt = lambda w: f"{w.real:.4f}{w.imag:+.4f}j"
    return ",".join(map(fmt, zs)), ",".join(map(fmt, cs))


def grid_echo(text: str) -> list[str]:
    """How a report's range renders a grid handed to pie as text."""
    return [str(complex(tok)) for tok in text.split(",")]


# -- correctness --------------------------------------------------------------


def check_manifest(child: Child, workload: Workload, grids: tuple[str, str] | None) -> tuple[int, list[str]]:
    """(checks_total, failed reports) of one report-all process, after checking
    that the manifest is complete, echoes its inputs and agrees with the exit
    code."""
    try:
        reports = [
            (r["id"], r["mode"], r["status"], dict(r["range"]), r["first_failure"])
            for r in json.loads(child.stdout)
        ]
    except (ValueError, TypeError, KeyError):
        tail = child.stderr.decode(errors="replace")[-400:]
        raise BenchError(f"unreadable manifest, exit code {child.code}: {tail}") from None
    if sorted(r[:2] for r in reports) != sorted(REPORTS):
        raise BenchError("manifest does not hold every (tag, mode) exactly once")
    args = dict(zip(workload.args[1::2], workload.args[2::2]))
    z_text, c_text = grids or (DEFAULT_Z, DEFAULT_C)
    expected = {
        "n_max": int(args["--n-max"]),
        "q_order": int(args["--q-order"]),
        "z_grid": grid_echo(z_text),
        "c_grid": grid_echo(c_text),
    }
    failed = []
    for tag, mode, status, rng, first_failure in reports:
        for key, value in expected.items():
            if key in rng and rng[key] != value:
                raise BenchError(f"{tag} [{mode}] ran {key}={rng[key]}, not {value}")
        if status not in ("pass", "fail"):
            raise BenchError(f"{tag} [{mode}] has status {status!r}")
        if status == "fail":
            failed.append(f"{tag} [{mode}] {json.dumps(first_failure, sort_keys=True)}")
    if child.code != (1 if failed else 0):
        raise BenchError(f"exit code {child.code} disagrees with {len(failed)} failed report(s)")
    return len(reports), failed


def sweep_lines(n: int) -> list[str]:
    """The expected sweep output, from an enumeration of D(n) made here."""
    windows = []  # (largest, smallest) of every distinct-part partition of n

    def rec(rem: int, cap: int, largest: int, last: int) -> None:
        if rem == 0:
            windows.append((largest, last))
            return
        for part in range(min(rem, cap), 0, -1):
            if part * (part + 1) // 2 < rem:
                break
            rec(rem - part, part - 1, largest or part, part)

    rec(n, n, 0, 0)
    lines = []
    for modulus in range(1, n + 1):
        members = sum(1 for big, small in windows if big >= modulus > big - small)
        divides = 1 if n % modulus == 0 else 0
        lines.append(f"N={modulus} members={members} fixed={divides} class_sum={divides}")
    return lines + [f"sweep ok for n={n}"]


def check_sweep(child: Child, expected: list[str]) -> tuple[int, list[str]]:
    """(moduli swept, moduli wrong or missing) of one sweep process."""
    got = child.stdout.decode(errors="replace").splitlines()
    moduli = len(expected) - 1
    failed = [expected[i] for i in range(moduli) if i >= len(got) or got[i] != expected[i]]
    if not failed and got != expected:
        raise BenchError("sweep output has extra or missing closing lines")
    if child.code != (1 if failed else 0):
        raise BenchError(f"exit code {child.code} disagrees with {len(failed)} failed modulus(es)")
    return moduli, failed


# -- measurement --------------------------------------------------------------


class BenchRun:
    """One benchmark run: its inputs, deadline and checked children."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.grids = seeded_grids(seed) if self.workload.seeded else None
        self.env = child_env(self.grids)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.processes = 0
        self.failed_checks: list[str] = []  # of the first process
        self.manifest: bytes | None = None
        self.sweep_expected = (
            sweep_lines(int(self.workload.args[2])) if self.workload.args[0] == "involution" else None
        )

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def run(self, prefix: list[str]) -> Child:
        """Run pie once behind PREFIX and check its output; count its checks."""
        child = run_child(prefix + list(self.workload.args), self.env, self.remaining())
        if self.sweep_expected is not None:
            total, failed = check_sweep(child, self.sweep_expected)
        else:
            total, failed = check_manifest(child, self.workload, self.grids)
        if self.manifest is None:
            self.manifest = child.stdout
        elif child.stdout != self.manifest:
            raise BenchError("outputs differ between processes of one workload and seed")
        if not self.processes:
            self.failed_checks = failed
        self.processes += 1
        self.attempted += total
        self.failed += len(failed)
        return child


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def probe_burst() -> int:
    """A fixed burst of interpreter work of the kinds pie does (tuples, dicts,
    strings and Fraction arithmetic): about a millisecond at full speed."""
    table = {}
    acc = Fraction(1, 3)
    for i in range(200):
        table[i, i & 7] = [i, str(i)]
        acc = acc * Fraction(i % 5 + 1, i % 7 + 2) + 1
        if acc.denominator > 10**40:
            acc = Fraction(1, 3)
    return len(table)


class SpeedProbe:
    """Pins this process, and so the children it starts, to one CPU and times
    probe_burst on that CPU every PROBE_INTERVAL_S from a helper thread.  The
    thread only times the probe; it starts no load."""

    def __enter__(self) -> SpeedProbe:
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        for _ in range(5):  # warm the burst up before timing it
            probe_burst()
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)
        self.thread.start()
        return self

    def _sample(self) -> None:
        clock = time.perf_counter
        while not self.stop.wait(PROBE_INTERVAL_S):
            t0 = clock()
            probe_burst()
            self.samples.append((t0, clock() - t0))

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join()
        os.sched_setaffinity(0, self.affinity)

    def scale(self, child: Child) -> float:
        """PROBE_REFERENCE_S over the mean burst time while CHILD ran, in a
        window widened to PROBE_MIN_WINDOW_S around a shorter child.  The
        slowest fifth of the bursts is left out: those are the ones a timer
        or another task interrupted."""
        half = max(child.wall_s, PROBE_MIN_WINDOW_S) / 2
        mid = (child.start + child.end) / 2
        bursts = sorted(d for t, d in self.samples if abs(t - mid) <= half)
        return PROBE_REFERENCE_S / statistics.fmean(bursts[: max(1, len(bursts) * 4 // 5)])


def measure_end_to_end(bench: BenchRun, seconds: int) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """(reported samples per metric, times as measured) of one run."""
    py = sys.executable
    setup_argv = [py, "-c", "import pie.cli"]
    with SpeedProbe() as probe:
        warm = run_child(setup_argv, bench.env, bench.remaining())
        if warm.code != 0:
            raise BenchError(f"cannot import pie.cli: {warm.stderr.decode(errors='replace')[-400:]}")
        setups = [run_child(setup_argv, bench.env, bench.remaining()) for _ in range(SETUP_REPEATS)]
        children: list[Child] = []
        start = time.perf_counter()
        while True:
            children.append(bench.run([py, "-m", "pie"]))
            elapsed = time.perf_counter() - start
            typical = statistics.median(c.wall_s for c in children)
            if elapsed + typical > seconds:
                break
    reported = {
        "wall_s": [c.wall_s * probe.scale(c) for c in children],
        "cpu_s": [c.cpu_s * probe.scale(c) for c in children],
        "setup_s": [c.wall_s * probe.scale(c) for c in setups],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "checks_total": [bench.attempted / len(children)],
    }
    measured = {
        "wall_s": [c.wall_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "setup_s": [c.wall_s for c in setups],
        "probe_burst_s": [d for _t, d in probe.samples],
    }
    return reported, measured


def layer_metrics(child: Child, data: dict, untraced: Child) -> dict[str, float]:
    calls, incl, selfs = data["calls"], data["inclusive_s"], data["self_s"]
    cpoly = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__")
    power_calls = calls.get("exact.complex_power", 0)
    out = {
        "partitions.self_s": selfs["partitions"],
        "partitions.distinct_stats_misses": data["distinct_stats_misses"],
        "partitions.triples_built": data["triples_built"],
        "partitions.partitions_yielded": data["partitions_yielded"],
        "partitions.reenumeration_ratio": (
            data["partitions_yielded"] / data["partitions_unique"] if data["partitions_unique"] else 0.0
        ),
        "exact.self_s": selfs["exact"],
        "exact.complex_power_calls": power_calls,
        "exact.complex_power_s": incl.get("exact.complex_power", 0.0),
        "exact.complex_power_unique_ratio": (
            data["complex_power_unique"] / power_calls if power_calls else 0.0
        ),
        "exact.cpoly_ops": sum(calls.get(f"exact.CPolynomial.{m}", 0) for m in cpoly),
        "exact.cpoly_s": incl.get("exact.CPolynomial", 0.0),
        "exact.bell_s": incl.get("exact.bell_polynomial", 0.0),
        "series.self_s": selfs["series"],
        "series.mul_calls": calls.get("series.TruncatedSeries.__mul__", 0),
        "series.inverse_calls": calls.get("series.TruncatedSeries.inverse", 0),
        "series.exp_calls": calls.get("series.TruncatedSeries.exp", 0)
        + calls.get("series.ExpSeries.exp", 0),
        "involution.self_s": selfs["involution"],
        "involution.pair_calls": calls.get("involution.pair", 0),
        "involution.class_sum_s": incl.get("involution.class_sum", 0.0),
        "identities.self_s": selfs["identities"],
        "cli.self_s": selfs["cli"],
        "cli.emit_s": incl.get("cli.emit_report", 0.0),
        "cli.manifest_bytes": len(child.stdout),
        "trace.overhead_s": child.wall_s - untraced.wall_s,
    }
    checks = {
        s["trace"]: s["end"] - s["start"]
        for s in data["spans"]
        if s["name"] == "identities.check_identity"
    }
    for tag, mode in REPORTS:
        out[f"identities.{tag}.{mode}_s"] = checks.get(f"{tag}.{mode}", 0.0)
    return out


def measure_layers(bench: BenchRun, per_layer: list[tuple[str, str]]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from two traced processes, after one untraced one."""
    py = sys.executable
    untraced = bench.run([py, "-m", "pie"])
    runs, traces = [], []
    for i in range(2):
        trace_file = OUT_DIR / f".trace-{os.getpid()}-{i}.json"
        try:
            child = bench.run([py, str(BENCH_DIR / "traced_pie.py"), str(trace_file)])
            data = json.loads(trace_file.read_text(encoding="utf-8"))
        finally:
            trace_file.unlink(missing_ok=True)
        runs.append(layer_metrics(child, data, untraced))
        traces.append(data)
    counts = {name for name, unit in per_layer if unit in COUNT_UNITS}
    for name in sorted(counts):
        if runs[0][name] != runs[1][name]:
            raise BenchError(f"counter {name} differs between traced runs: {runs[0][name]} vs {runs[1][name]}")
    metrics = {
        name: runs[0][name] if name in counts else statistics.median(r[name] for r in runs)
        for name, _unit in per_layer
    }
    dump = {"untraced_wall_s": untraced.wall_s, "traced_runs": traces}
    return metrics, dump


# -- reporting ----------------------------------------------------------------


def context() -> dict:
    """What identifies a result set: commit (or a digest of the sources when
    the checkout is not a git repository), Python version and nproc."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def result_line(correct: bool, bench: BenchRun, metrics: dict[str, float], units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": max(bench.attempted, 1),
            "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pie" / "cli.py").is_file():
        print(f"no pie sources under {ROOT / 'src' / 'pie'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    bench = BenchRun(args.workload, args.seed)
    ctx = context()
    print(f"context: {json.dumps(ctx, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: pie {' '.join(bench.workload.args)}")
    if bench.grids:
        print(f"  PIE_Z={bench.grids[0]} PIE_C={bench.grids[1]}")
    end_to_end, per_layer = load_spec()
    units = per_layer if args.trace else end_to_end
    try:
        if args.trace:
            metrics, dump = measure_layers(bench, per_layer)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, "context": ctx, **dump}, sort_keys=True),
                encoding="utf-8",
            )
            for name, unit in per_layer:
                print(f"  {name}: {metrics[name]:.6g} {unit}")
            for names, moves, on, flat in LAYER_CLAIMS:
                print(f"  claim: {names} should move {moves} on {on}; flat on {flat}")
            print(f"  spans written to {trace_path.relative_to(ROOT)}")
        else:
            samples, measured = measure_end_to_end(bench, args.seconds)
            metrics = {name: statistics.median(v) for name, v in samples.items()}
            for label, table, units_of in (
                ("", samples, end_to_end),
                ("as measured: ", measured, [(name, "s") for name in measured]),
            ):
                for name, unit in units_of:
                    q1, q3 = quartiles(table[name])
                    print(
                        f"  {label}{name}: median={statistics.median(table[name]):.6g} "
                        f"q1={q1:.6g} q3={q3:.6g} n={len(table[name])} {unit}"
                    )
        print(
            f"  checks_failed: {len(bench.failed_checks)} per process "
            f"({bench.processes} processes, {bench.failed} in total) count"
        )
        for line in bench.failed_checks:
            print(f"    failed: {line}")
    except BenchError as exc:
        bench.failed += 1
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        print(result_line(False, bench, {}, ()))
        return 1
    print(result_line(True, bench, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

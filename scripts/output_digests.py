#!/usr/bin/env python3
"""Print a sha256 digest of every byte-stable `pie` output, one per command.

Each line is `<sha256 of stdout>  <command>`, with ` (exit N)` appended when
the command exits nonzero; the script then exits 1 after printing them all.
The commands cover:

  - report-all at 40/25, 60/12 and 12/60 (n-max/q-order) in json, csv and
    text, under three numeric grids: the built-in one,
    PIE_Z=1,-0.5+0.25j PIE_C=0.3,-0.2j, and
    PIE_Z=0,-0j,1.5-0.5j,1.5-0.5j PIE_C=-0.3,0.85,0.4-0.3j,-0j, whose
    signed zeros and repeated point exercise the numeric power tables,
    which go by grid position (0j == -0j, yet their powers differ);
  - report-all at the stretch range 200/80 in json under the built-in
    grid, the one range that builds the signed D(n) sums and the size
    cells past n = 60 (each once, at exactly 200) and grows the doubling
    d(m) table past its cap 64, to 128 and then 256;
  - pie series --order 40 for A, M, K and entry4 at --m 1 and --m 3, with
    --c symbolic, 1, 2/3, -1/2 and 0, and for dilcher, which takes no c, at
    --m 1 and --m 3;
  - pie series --order 300, the largest order accepted, for entry4, A and
    K at --m 4 at --c symbolic, whose int builds at a packed c take the
    widest slots (both K constructions pack the same ints, so a K row
    decoded wrong passes pie itself), and for dilcher, whose dump builds constructions (a) and (b), at --m 4,
    thm_1_2's k_max, and at --m 6, the deepest fold --m admits;
  - pie involution --sweep at --n 24, --n 60, --n 80 and --n 100, the
    largest n it accepts, at --n 20 the class listing of --N-divisor 3 with
    --trace and that of --N-divisor 4 without it, at --n 60 the listing of
    --N-divisor 7 with --trace, and at --n 100 that of --N-divisor 7.

Every command runs in a fresh interpreter with no other PIE_* variable set.
Two source trees give byte-identical outputs exactly when a diff of this
script's output against both is empty:

    python scripts/output_digests.py > after.txt
    python scripts/output_digests.py --src /path/to/other/src > before.txt
    diff before.txt after.txt

The scale-1 output of the tree itself is pinned in tests/output_digests.txt:

    python scripts/output_digests.py | diff tests/output_digests.txt -

Usage:
    python scripts/output_digests.py [scale] [--src PATH]

scale (default 1) multiplies every range and every n, each kept at least
4, the smallest q-order report-all admits (thm_1_2's k_max), a listing's n
kept no less than its modulus, and the order-300 dumps' order no more than
300.  0.1 gives a quick smoke run.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPORT_RANGES = ((40, 25), (60, 12), (12, 60))
STRETCH_RANGE = (200, 80)
FORMATS = ("json", "csv", "text")
GRID_ENVS = (
    {},
    {"PIE_Z": "1,-0.5+0.25j", "PIE_C": "0.3,-0.2j"},
    {"PIE_Z": "0,-0j,1.5-0.5j,1.5-0.5j", "PIE_C": "-0.3,0.85,0.4-0.3j,-0j"},
)
SERIES_ORDER = 40
SERIES_NAMES = ("A", "M", "K", "entry4")
SERIES_MS = (1, 3)
SERIES_CS = ("symbolic", "1", "2/3", "-1/2", "0")
LONG_SERIES = (
    ("entry4", "--c=symbolic"),
    ("A", "--c=symbolic"),
    ("K", "--m", "4", "--c=symbolic"),
    ("dilcher", "--m", "4"),
    ("dilcher", "--m", "6"),
)
LONG_ORDER = 300  # cli.MAX_Q_ORDER
SWEEP_NS = (24, 60, 80, 100)
LISTINGS = ((20, 3, "--trace"), (20, 4), (60, 7, "--trace"), (100, 7))
MIN_RANGE = 4


def commands(scale: float):
    """(env, argv) for every digested command, in a fixed order."""

    def scaled(value: int, least: int = MIN_RANGE) -> str:
        return str(max(least, round(value * scale)))

    for env in GRID_ENVS:
        for n_max, q_order in REPORT_RANGES:
            for fmt in FORMATS:
                yield env, [
                    "report-all", "--n-max", scaled(n_max), "--q-order", scaled(q_order),
                    "--format", fmt,
                ]
    n_max, q_order = STRETCH_RANGE
    yield {}, [
        "report-all", "--n-max", scaled(n_max), "--q-order", scaled(q_order), "--format", "json",
    ]
    for name in SERIES_NAMES:
        for m in SERIES_MS:
            for c in SERIES_CS:
                # --c=VALUE, since argparse reads a bare -1/2 as a flag
                yield {}, [
                    "series", "--name", name, "--m", str(m), f"--c={c}",
                    "--order", scaled(SERIES_ORDER),
                ]
    for m in SERIES_MS:
        yield {}, ["series", "--name", "dilcher", "--m", str(m), "--order", scaled(SERIES_ORDER)]
    for name, *flags in LONG_SERIES:
        order = min(LONG_ORDER, int(scaled(LONG_ORDER)))
        yield {}, ["series", "--name", name, *flags, "--order", str(order)]
    for n in SWEEP_NS:
        yield {}, ["involution", "--n", scaled(n), "--N-divisor", "1", "--sweep"]
    for n, modulus, *flags in LISTINGS:
        yield {}, [
            "involution", "--n", scaled(n, max(MIN_RANGE, modulus)),
            "--N-divisor", str(modulus), *flags,
        ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", nargs="?", type=float, default=1.0)
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="the source tree holding the pie package to run",
    )
    args = parser.parse_args()
    if not args.scale > 0:
        parser.error("scale must be positive")
    if not (args.src / "pie" / "__init__.py").is_file():
        parser.error(f"no pie package under {args.src}")
    base = {k: v for k, v in os.environ.items() if not k.startswith("PIE_")}
    base["PYTHONPATH"] = str(args.src.resolve())
    failed = 0
    for env, argv in commands(args.scale):
        proc = subprocess.run(
            [sys.executable, "-m", "pie", *argv],
            env={**base, **env},
            capture_output=True,
            timeout=600,
        )
        shown = " ".join([*(f"{k}={v}" for k, v in env.items()), "pie", *argv])
        status = f" (exit {proc.returncode})" if proc.returncode else ""
        failed += bool(proc.returncode)
        print(f"{hashlib.sha256(proc.stdout).hexdigest()}  {shown}{status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

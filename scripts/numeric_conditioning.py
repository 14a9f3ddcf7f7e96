#!/usr/bin/env python3
"""Measure cancellation in the numeric mode across a (z, c) grid.

Numeric mode evaluates each side of an identity from its exact integer
weight profile: sum_e a_n(e) * e^z * c^e, with the signed counts of D(n)
already aggregated into a_n(e).  The condition estimate is the sum of the
term magnitudes |a_n(e) * e^z * c^e| over max(1, |value|), so it measures
the cancellation left inside that one sum, not the much larger cancellation
between individual partitions that the exact aggregation removes.  For the
two-variable identity the window profile of D(n) is the divisor indicator,
so the estimate is the conditioning of sigma_{z,c}(n) itself.  This prints
the worst condition estimate per grid point and the worst relative error
against the directly summed divisor side.  A condition of 10^k costs
roughly k digits, which motivates the default relative tolerance of 1e-9
for double precision.

Usage:
    python scripts/numeric_conditioning.py [n_max]
"""

import sys

from pie.exact import divisors, fractional_weight
from pie.identities import _window_profile

Z_GRID = (1.5 + 0j, -1 + 0j, -2 + 0j, 0.5 + 0.5j, 2 - 1j, 3.5 + 0j)
C_GRID = (0.4 + 0j, -0.3 + 0j, 0.4 - 0.3j, 0.2 + 0.7j, 0.85 + 0j)


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    print(f"{'z':>12s} {'c':>12s} {'max cond':>10s} {'max rel err':>12s}")
    for z in Z_GRID:
        for c in C_GRID:
            cond = 0.0
            err = 0.0
            for n in range(1, n_max + 1):
                lhs, magnitude = fractional_weight(_window_profile(n), z, c)
                rhs, _ = fractional_weight([(d, 1) for d in divisors(n)], z, c)
                cond = max(cond, magnitude / max(1.0, abs(lhs)))
                err = max(err, abs(lhs - rhs) / max(1.0, abs(rhs)))
            print(f"{z!s:>12s} {c!s:>12s} {cond:10.3g} {err:12.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

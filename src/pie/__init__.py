"""Exact engine for weighted partition identities and divisor-sum q-series.

Library surface:

  partitions  - enumeration, statistics, and exact counting of partitions
  exact       - divisor sums, polynomials in c, complex powers, Bell polys
  series      - truncated q-series in one graded stored form, and builders
  involution  - the sign-reversing pairing on distinct-part partitions
  identities  - the closed registry of identity checkers and reports
  cli         - the `pie` command-line front end
"""

from .errors import AlgorithmFault
from .exact import C, CPolynomial, bell_polynomial, divisors, sigma_int
from .identities import CheckConfig, IdentityId, IdentityReport, check_identity, run_all
from .involution import PairingTrace, class_sum, in_class, membership_count, pair
from .partitions import (
    Partition,
    count_exact_part_sizes,
    enumerate_distinct,
    enumerate_partitions,
)
from .series import ExpSeries, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "AlgorithmFault",
    "C",
    "CPolynomial",
    "CheckConfig",
    "ExpSeries",
    "IdentityId",
    "IdentityReport",
    "PairingTrace",
    "Partition",
    "TruncatedSeries",
    "bell_polynomial",
    "check_identity",
    "class_sum",
    "count_exact_part_sizes",
    "divisors",
    "enumerate_distinct",
    "enumerate_partitions",
    "in_class",
    "membership_count",
    "pair",
    "run_all",
    "sigma_int",
    "__version__",
]

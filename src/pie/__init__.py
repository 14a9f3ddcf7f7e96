"""Exact engine for weighted partition identities and divisor-sum q-series.

Library surface:

  partitions  - partition records, the D(n) walk, and the exact counting DPs
  exact       - divisor sums, polynomials in c, complex powers, Bell polys
  series      - truncated q-series in one graded stored form, and builders
  involution  - the sign-reversing pairing on distinct-part partitions
  identities  - the closed registry of identity checkers and reports
  cli         - the `pie` command-line front end

`import pie` loads none of these layers.  A name in __all__ or a submodule
is imported on first use (PEP 562), so `pie.run_all` loads the identity
registry and the layers under it, while `pie.involution` loads only the
pairing and the partitions it walks.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": ("AlgorithmFault",),
    "exact": ("C", "CPolynomial", "bell_polynomial", "divisors", "sigma_int"),
    "identities": ("CheckConfig", "IdentityId", "IdentityReport", "check_identity", "run_all"),
    "involution": ("PairingTrace", "in_class", "pair"),
    "partitions": ("Partition", "class_sum", "count_exact_part_sizes"),
    "series": ("ExpSeries", "TruncatedSeries"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli")

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

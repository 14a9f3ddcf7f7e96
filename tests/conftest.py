"""Shared fixtures."""

import pytest

from pie import identities, partitions


@pytest.fixture
def skewed_binomial_profile(monkeypatch):
    """Make the right side of thm_2_3 / cor_2_4 wrong by one coefficient.

    P_0's coefficient of c^1 gains 1 at every n, a genuine discrepancy in
    thm_2_3's right side, the view of agl_scaled's, that every mode must
    report as a failure at n = 1.
    """
    real = identities._binomial_rows

    def skewed(n):
        p1, (p0_0, p0_1, *rest) = real(n)
        return p1, (p0_0, p0_1 + 1, *rest)

    monkeypatch.setattr(identities, "_binomial_rows", skewed)


@pytest.fixture
def table_builds(monkeypatch):
    """The caps each partition DP table is built at, from an empty cache:
    {"cells": [...], "windows": [...]} in build order."""
    builds = {"cells": [], "windows": []}
    monkeypatch.setattr(partitions, "_tables", {})
    for key, name in (("cells", "_size_cell_table"), ("windows", "_window_table")):

        def build(cap, real=getattr(partitions, name), caps=builds[key]):
            caps.append(cap)
            return real(cap)

        monkeypatch.setattr(partitions, name, build)
    return builds

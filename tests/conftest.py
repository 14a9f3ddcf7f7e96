"""Shared fixtures."""

import pytest

from pie import identities, partitions


@pytest.fixture
def skewed_binomial_profile(monkeypatch):
    """Make the right side of thm_2_3 / cor_2_4 wrong by one coefficient.

    The first profile entry of every n gains 1, a genuine discrepancy that
    every mode must report as a failure at n = 1.
    """
    real = identities._binomial_profile

    def skewed(n):
        (e, a), *rest = real(n)
        return ((e, a + 1), *rest)

    monkeypatch.setattr(identities, "_binomial_profile", skewed)


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

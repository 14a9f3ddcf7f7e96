"""Shared fixtures."""

import pytest

from pie import identities


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

"""Shared test set-up: one hypothesis profile for every property test, and
a fixture that forbids numpy allocations.

``derandomize`` makes each run draw the same examples, so a property that
fails once fails again, and with no deadline a slow example on a loaded
machine cannot fail a property.
"""

import numpy as np
import pytest
from hypothesis import settings

from stacky.arith import _primes, _trial_primes

settings.register_profile("stacky", derandomize=True, deadline=None)
settings.load_profile("stacky")


@pytest.fixture
def no_numpy_alloc(monkeypatch):
    """Make the numpy constructors the sieve uses raise AssertionError, so
    a test can show that an infeasible size is refused before any array is
    allocated.  The cached primes below 2^16, which the sieve slices, and
    the trial primes that factoring n reads are built first, so that the
    test does not depend on an earlier one having done it."""
    _primes()
    _trial_primes()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy array allocated")

    for name in ("zeros", "ones", "arange"):
        monkeypatch.setattr(np, name, refuse)

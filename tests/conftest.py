"""Shared test set-up: one hypothesis profile for every property test.

``derandomize`` makes each run draw the same examples, so a property that
fails once fails again, and with no deadline a slow example on a loaded
machine cannot fail a property.
"""

from hypothesis import settings

settings.register_profile("stacky", derandomize=True, deadline=None)
settings.load_profile("stacky")

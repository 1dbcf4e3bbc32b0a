"""Shared test settings.

Property tests run under a derandomized hypothesis profile with no
example database, so every run of the suite draws the same examples
and stays within a few seconds.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("deterministic")

"""Hypothesis draws the same examples on every run, with no time limit per
example, so the suite stays deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

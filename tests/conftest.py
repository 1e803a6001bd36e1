"""Hypothesis draws the same cases on every run and keeps no example database,
so a test run is reproducible and leaves no .hypothesis/ directory behind."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

"""Hypothesis draws the same cases on every run and keeps no example database,
so a test run is reproducible.  Hypothesis still caches the constants it
finds in the code under .hypothesis/constants/, which .gitignore covers."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

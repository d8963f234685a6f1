"""Test-suite settings shared by every module."""

from hypothesis import settings

# Draw the same examples on every run and keep no example database, so that
# the verdict is a function of the code alone, not of earlier runs' failures.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

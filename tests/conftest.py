"""Shared pytest settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run tests the same inputs and leaves no ``.hypothesis/``
directory behind.
"""

from hypothesis import settings

settings.register_profile("seca", derandomize=True, database=None)
settings.load_profile("seca")

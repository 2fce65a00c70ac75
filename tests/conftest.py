"""Shared test settings: every ``hypothesis`` test draws its examples from
a fixed seed, has no deadline and keeps no example database, so every
run checks the same cases. Each test sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("farfield", derandomize=True, deadline=None, database=None)
settings.load_profile("farfield")

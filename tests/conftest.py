"""Test-suite settings: one fixed hypothesis profile, so every run of the
suite draws the same examples and the tier-1 result is deterministic."""

from hypothesis import settings

# no example database: a stored failure would be replayed first and change
# which examples a run draws
settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None,
                          database=None)
settings.load_profile("tier1")

"""Shared pytest configuration for the tier-1 suite.

Property tests run under a deterministic Hypothesis profile: examples
are derived from each test's source rather than a random seed, and no
example database is read or written, so a pass or fail never depends on
a local ``.hypothesis/`` cache.  Counterexamples worth keeping are
pinned with explicit ``@example`` decorators instead.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

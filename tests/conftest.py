"""Shared pytest configuration for the tier-1 suite.

Property tests run under a deterministic Hypothesis profile: examples
are derived from each test's source rather than a random seed, and no
example database is read or written, so a pass or fail never depends on
a local ``.hypothesis/`` cache.  Counterexamples worth keeping are
pinned with explicit ``@example`` decorators instead.

``HYPOTHESIS_PROFILE=explore`` selects the randomized profile instead:
fresh examples on every run, with the reproduction blob of any failure
printed.  The scheduled property-exploration CI workflow uses it; tier-1
never does.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

"""Test set-up: this directory on the import path (for the helper modules
``memory``, ``oracles``, ``pool``) and a derandomized hypothesis profile.
``pyproject.toml`` sets ``filterwarnings = ["error"]``, so every warning
fails the suite."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # only the property-based tests need hypothesis
    pass
else:
    # Derandomized: every run draws the same examples, so the suite stays
    # deterministic; no deadline, since case cost grows with the drawn shape.
    settings.register_profile("tubekit", derandomize=True, deadline=None)
    settings.load_profile("tubekit")

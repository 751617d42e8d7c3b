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

"""Suite-wide test configuration.

Under CI (GitHub Actions sets ``CI``) the ``ci`` Hypothesis profile is
loaded: a failing property then also prints the ``@reproduce_failure``
line that replays it exactly.  Every other setting keeps its default.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

"""Shared test settings.

Property tests run under a registered ``hypothesis`` profile: derandomized,
so every run replays the same examples, and without a per-example deadline,
so a slow or throttled CPU cannot fail a test on timing alone.
"""

from hypothesis import settings

settings.register_profile("oscnav", derandomize=True, deadline=None, database=None)
settings.load_profile("oscnav")

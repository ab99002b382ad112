"""Test settings shared by every module.

Property tests run exact arithmetic, whose cost varies a lot between
examples, and must repeat from run to run: one hypothesis profile makes them
derandomized, keeps no example database and sets no deadline.
"""

from hypothesis import settings

settings.register_profile("exact", derandomize=True, database=None, deadline=None)
settings.load_profile("exact")

"""Hypothesis profiles.

`ci` draws the same examples on every run (`derandomize=True`), so a
property test fails or passes the same way in every CI log; select it with
`--hypothesis-profile=ci`. Local runs keep the default profile, which draws
fresh examples each time.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True)

"""Shared test settings: `pytest --hypothesis-profile=ci` loads the `ci`
profile, with ten times the default examples and no deadline, which CI's
config-fuzzer step runs under."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)

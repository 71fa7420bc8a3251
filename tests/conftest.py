import os

from hypothesis import settings

# CI sets HYPOTHESIS_PROFILE=ci so that every run draws the same examples;
# local runs keep hypothesis's random search.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

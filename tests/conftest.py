"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci selects "ci": examples are
drawn from a fixed seed, so a property failure reproduces on every rerun
and on the parent commit, and a failure prints the blob that replays it.
Without it, examples are drawn at random on every run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

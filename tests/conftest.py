"""Test-session settings.

Property tests run under a profile that draws the same examples on every
run and keeps no example database, so Tier-1 results are reproducible.
The explain phase is left out: it re-runs a failing example under line
tracing, which through the dense oracles takes minutes and about 1 GB where
the failure itself is reported in seconds.  Hypothesis also caches the
constants it finds in local source files under its home directory, so that
home is moved out of the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import Phase, settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "covwit", derandomize=True, database=None, deadline=None,
    phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("covwit")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "covwit-hypothesis")

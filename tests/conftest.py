"""Test-wide hypothesis settings.

Examples are derived from each test's source rather than drawn at random,
and no example database is kept, so every run of the suite checks the
same cases.  Hypothesis also caches the literals it mines from source
files; that cache lives in a temporary directory removed at the end of
the run, so a test run leaves no ``.hypothesis/`` directory behind.
"""
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)

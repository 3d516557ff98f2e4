"""Session set-up shared by every test directory.

Hypothesis keeps a constants cache, and for a failing property test patch
files, under its home directory, ``.hypothesis/`` in the working directory
by default. The test session points that home at a temporary directory
instead, removed at exit, so a test run leaves nothing in the working tree.
"""

import atexit
import shutil
import tempfile

from hypothesis import configuration


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(home)
    atexit.register(shutil.rmtree, home, ignore_errors=True)

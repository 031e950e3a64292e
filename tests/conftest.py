"""Shared pytest settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run tests the same inputs. Its other caches (constants
and unicode data) go to a temporary directory removed when the session
ends, so a run leaves no ``.hypothesis/`` directory behind.
"""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="seca-hypothesis-")
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
set_hypothesis_home_dir(_HOME)

settings.register_profile("seca", derandomize=True, database=None)
settings.load_profile("seca")

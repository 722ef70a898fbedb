"""Make ``tests/`` importable so tests can share ``reference/`` implementations.

``tests/reference/`` holds plain-NumPy reference implementations that the
shipped package has replaced with faster code; parity tests import them as
``from reference.<module> import ...``.
"""

import pathlib
import sys

TESTS_DIR = str(pathlib.Path(__file__).resolve().parent)
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

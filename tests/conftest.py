"""Rewrite the asserts of the shared test oracles, as pytest does for test
modules, so that their checks also run under ``python -O``; keep
hypothesis's files in a temporary directory instead of ``.hypothesis/``."""

import os
import tempfile

import pytest

pytest.register_assert_rewrite("tests_helpers_brute")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="rmlab-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)

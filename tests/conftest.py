"""Rewrite the asserts of the shared test oracles, as pytest does for test
modules, so that their checks also run under ``python -O``."""

import pytest

pytest.register_assert_rewrite("tests_helpers_brute")

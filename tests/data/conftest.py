"""Opt-in runtime sanitizer for the data suite.

``REPRO_SANITIZE=1 pytest tests/data`` instruments the lock-owning classes
(the shard sources' LRU and read-ahead state among them) for the whole
session (see :mod:`repro.lint.runtime`) and asserts at teardown that no
guarded attribute was touched off-lock under contention — same pattern as
``tests/parallel/conftest.py``.  Without the environment variable this
conftest is inert.
"""

import pytest

from repro.lint import runtime


@pytest.fixture(scope="session", autouse=True)
def runtime_sanitizer():
    if not runtime.enabled():
        yield
        return
    runtime.install()
    try:
        yield
        runtime.check(strict=True)
    finally:
        runtime.uninstall()

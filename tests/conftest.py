"""Suite-wide guard: no test may leave a child process behind."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child, running or
    exited but not waited for: a block helper that ``close`` did not reap."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail("a child process outlived the test")

import multiprocessing
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child alive, such as an
    engine stream's decoder that shutdown() did not reap; the children
    are stopped first, so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"child processes left alive: {[c.name for c in left]}")

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a new non-daemon thread alive, such as an
    i.i.d. stream's draw-ahead worker that was never joined."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and not t.daemon]
    assert not leaked, f"threads left alive: {leaked}"

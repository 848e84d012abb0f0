"""Tier-1 fixtures: a wall-clock bound on every test, so a test that hangs fails under its own name."""

import signal

import pytest

# The slowest test takes about 3 s; a hang is anything far past that.
TEST_WALL_SECONDS = 60


@pytest.fixture(autouse=True)
def wall_bound(request):
    if not hasattr(signal, "SIGALRM"):  # no interval timers to bound the test with here
        yield
        return

    def expire(signum, frame):
        # pytest.fail raises a BaseException, which no `except Exception` in the code under test swallows.
        pytest.fail(f"{request.node.nodeid} ran past the {TEST_WALL_SECONDS} s wall bound")

    previous = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_WALL_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, previous)

"""Suite-wide fixtures: a time limit on every test."""

import signal
import threading

import pytest

# a test still running after this many seconds fails, so that a loop that
# spins fails its own test instead of hanging the whole suite
TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    # SIGALRM from a real-time interval timer, where POSIX has one and the
    # test runs in the main thread; forked children do not inherit the timer
    main = threading.current_thread() is threading.main_thread()
    if not hasattr(signal, "setitimer") or not main:
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its time limit of {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

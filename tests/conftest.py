"""Suite-wide fixtures: a time limit on every test, and the slow opt-in.

A test marked @pytest.mark.slow("about 2 s of scanning") is skipped with
that reason unless the environment sets MSTD_SLOW_TESTS=1.
"""

import os
import signal
import threading

import pytest

# a test still running after this many seconds fails, so that a loop that
# spins fails its own test instead of hanging the whole suite
TIME_LIMIT_S = 300


def pytest_configure(config):
    config.addinivalue_line("markers", "slow(reason): run only with MSTD_SLOW_TESTS=1")


def pytest_collection_modifyitems(items):
    if os.environ.get("MSTD_SLOW_TESTS"):
        return
    for item in items:
        if mark := item.get_closest_marker("slow"):
            reason = f"{mark.args[0]}; set MSTD_SLOW_TESTS=1 to run"
            item.add_marker(pytest.mark.skip(reason=reason))


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

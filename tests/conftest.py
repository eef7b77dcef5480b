"""A time bound on every test, so a loop that never ends fails its test
instead of hanging the suite.

SIGALRM interrupts the test once it has run TEST_TIME_LIMIT_S of wall time,
and the handler raises TimeLimitExceeded there.  The timer fires once,
and teardown disarms it and puts the previous handler back.  It needs
setitimer, so on a platform without it tests run unbounded.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 60   # the slowest test takes about 2 s


class TimeLimitExceeded(BaseException):
    """Not an Exception, so neither the engine's handlers nor hypothesis
    catch it: hypothesis would replay the example to shrink it, and that
    replay would hang again with the one-shot timer spent."""


@pytest.fixture(autouse=True)
def _time_bound(request):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expired(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran over {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

import pytest

import gpsf


class ChannelStore:
    """Memoized channel solves shared across a test session."""

    def __init__(self):
        self._data = {}

    def __call__(self, p, c, N, nmax):
        key = (p, float(c), N)
        have = self._data.get(key)
        if have is None or len(have) <= nmax:
            self._data[key] = gpsf.solve_channel(gpsf.ProlateChannel(p, float(c), N), nmax)
        return self._data[key]


@pytest.fixture(scope="session")
def channels():
    return ChannelStore()

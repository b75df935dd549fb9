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


@pytest.fixture
def eigenvalue_routines(monkeypatch):
    """Names of the LAPACK eigenvalue routines the eigensolve calls, in order."""
    from gpsf import prolate

    called = []
    for name in ("dsterf", "dstebz"):
        real = getattr(prolate, name)
        monkeypatch.setattr(prolate, name, lambda *a, _n=name, _f=real: called.append(_n) or _f(*a))
    return called

import dataclasses

import numpy as np
import pytest

import gpsf
from gpsf.prolate import NumericalError
from gpsf.roots import find_roots
from oracles import pruefer_beta


def _scan_roots(mode, grid_size=10000):
    """Independent dense-scan root finder (bisection refinement)."""
    rr = np.linspace(1e-9, 1.0 - 1e-12, grid_size)
    vals = gpsf.eval_phi(mode, rr)
    out = []
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    for i in flips:
        a, b = rr[i], rr[i + 1]
        fa = gpsf.eval_phi(mode, a)
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = gpsf.eval_phi(mode, m)
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        out.append(0.5 * (a + b))
    return np.array(out)


class TestFindRoots:
    def test_mode_zero_has_no_roots(self, channels):
        mode = channels(0, 20.0, 0, 0)[0]
        assert len(find_roots(mode)) == 0

    @pytest.mark.parametrize("p,c,N,n", [(0, 20.0, 0, 14), (1, 50.0, 0, 12), (0, 20.0, 3, 8)])
    def test_count_residual_and_sign_changes(self, channels, p, c, N, n):
        mode = channels(p, c, N, n)[n]
        roots = find_roots(mode)
        assert len(roots) == n
        grid = np.linspace(1e-9, 1.0, 4 * n + 200)
        scale = np.max(np.abs(gpsf.eval_phi(mode, grid)))
        assert np.max(np.abs(gpsf.eval_phi(mode, roots))) <= 1e-12 * scale
        gaps = np.diff(np.concatenate([[0.0], roots, [1.0]]))
        delta = 0.1 * np.min(gaps)
        left = gpsf.eval_phi(mode, roots - delta)
        right = gpsf.eval_phi(mode, roots + delta)
        assert np.all(left * right < 0.0)

    def test_matches_dense_scan(self, channels):
        mode = channels(0, 20.0, 0, 10)[10]
        ours = find_roots(mode)
        ref = _scan_roots(mode)
        assert len(ref) == 10
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_interlacing(self, channels):
        modes = channels(0, 20.0, 0, 16)
        prev = find_roots(modes[1])
        for n in range(2, 16):
            cur = find_roots(modes[n])
            # strict interlacing: one previous root inside each gap
            for lo, hi in zip(cur[:-1], cur[1:]):
                assert np.sum((prev > lo) & (prev < hi)) == 1
            prev = cur

    def test_newton_sweeps(self, channels, monkeypatch):
        # the secant through each bracket starts Newton within 1e-3 of its root,
        # and every root converges within five sweeps
        from gpsf import roots

        mode = channels(0, 20.0, 0, 14)[14]
        sweeps = _counting(monkeypatch, roots, "tabulate")
        found = find_roots(mode)
        assert len(found) == 14
        assert np.max(np.abs(sweeps[0][1] - found)) <= 1e-3
        assert len(sweeps) <= 5


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(module, name, counted)
    return calls


# the sweep of the oscillatory interval: p in {-1, 0, 1}, c from 5 to 4000, N up to c
_UNDERFLOW = pytest.mark.xfail(
    raises=NumericalError, strict=True,
    reason="at alpha = 2000 the basis recurrence overflows before r^N (1e-300 on this interval) "
           "scales it, so Phi is NaN on part of the scan and its evaluation raises")
_SWEEP = [
    pytest.param(p, c, N, marks=_UNDERFLOW if (c, N) == (4000.0, 2000) else ())
    for p in (-1, 0, 1)
    for c in (5.0, 50.0, 300.0, 1000.0, 4000.0)
    for N in ((0, 1) if p == -1 else sorted({0, 1, 3, int(c) // 10, int(c) // 2, int(c)}))
]


class TestPrueferPhase:
    def test_beta_positive_on_oscillatory_interval(self, channels):
        mode = channels(0, 20.0, 0, 12)[12]
        roots = find_roots(mode)
        for r in np.linspace(roots[0], roots[-1], 50):
            assert pruefer_beta(mode, float(r)) > 0.0

    def test_turning_point_closed_form(self, channels):
        # for p=1, N=0 the singular term of the phase coefficient drops
        # out and the turning point is exactly sqrt(chi)/c (chi < c^2)
        from gpsf.roots import _oscillatory_interval

        mode = channels(1, 20.0, 0, 5)[5]
        assert mode.chi < 400.0
        x_in, x0 = _oscillatory_interval(mode)
        assert x0 == pytest.approx(np.sqrt(mode.chi) / 20.0, rel=1e-15)
        assert x_in == 0.0  # b > 0 from r = 0 on, as for every alpha <= 1/2

    def test_scan_starts_below_the_oscillatory_interval(self, channels):
        # for alpha > 1/2, b < 0 near r = 0: the scan starts where b turns
        # positive, below every root
        from gpsf.roots import _oscillatory_interval

        mode = channels(0, 20.0, 60, 5)[5]
        x_in, _ = _oscillatory_interval(mode)
        assert pruefer_beta(mode, x_in * (1.0 - 1e-9)) <= 0.0 < pruefer_beta(mode, x_in * (1.0 + 1e-9))
        assert 0.0 < x_in < find_roots(mode)[0]

    @pytest.mark.parametrize("p,c,N", _SWEEP)
    def test_interval_against_sign_grid_and_bisection(self, channels, p, c, N):
        from gpsf.roots import _oscillatory_interval

        modes, starts = channels(p, c, N, 4)[1:5], []
        for mode in modes:
            x_in, x0 = _oscillatory_interval(mode)
            ref_in, ref_x0 = _grid_interval(mode)
            assert x0 == pytest.approx(ref_x0, abs=1e-12)
            assert ref_in <= x_in
            inside = x_in + (x0 - x_in) * np.linspace(1e-9, 1.0 - 1e-9, 101)
            assert np.all(pruefer_beta(mode, inside) > 0.0)
            if x_in > 0.0:
                assert pruefer_beta(mode, x_in * (1.0 - 1e-9)) <= 0.0
            if x0 < 1.0:
                assert pruefer_beta(mode, x0 * (1.0 + 1e-9)) <= 0.0
            starts.append(x_in)
        assert all(x_in < find_roots(mode)[0] for x_in, mode in zip(starts, modes))


_B_GRID = np.linspace(1e-6, 1.0 - 1e-12, 512)


def _grid_interval(mode):
    """The oscillatory interval by search: x_in is the last point of a 512-point
    sign grid of b before b turns positive, x0 the bisected last downward sign
    change of b on that grid (1 if b is positive at the grid's end)."""
    vals = pruefer_beta(mode, _B_GRID)
    first = np.flatnonzero(vals > 0.0)
    x_in = float(_B_GRID[first[0] - 1]) if len(first) and first[0] > 0 else 0.0
    down = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if vals[-1] > 0.0 or len(down) == 0:
        return x_in, 1.0
    lo, up = float(_B_GRID[down[-1]]), float(_B_GRID[down[-1] + 1])
    while up - lo > 1e-14:
        mid = 0.5 * (lo + up)
        if pruefer_beta(mode, mid) > 0.0:
            lo = mid
        else:
            up = mid
    return x_in, 0.5 * (lo + up)


class TestRootErrors:
    @pytest.mark.parametrize("found", [13, 15])
    def test_wrong_bracket_count_raises(self, channels, monkeypatch, found):
        # the scan's evaluation is patched to show one sign change fewer or more
        from gpsf import roots

        mode = channels(0, 20.0, 0, 14)[14]
        real = roots.eval_phi

        def miscounted(m, r):
            vals = real(m, r)
            flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
            if found < 14:
                vals[: flips[0] + 1] *= -1.0  # the lowest sign change is lost
            else:
                vals[0] *= -1.0  # a sign change appears at the scan's start
            return vals

        monkeypatch.setattr(roots, "eval_phi", miscounted)
        with pytest.raises(NumericalError, match=f"found {found} sign changes, expected 14"):
            find_roots(mode)

    def test_empty_oscillatory_interval_raises_before_any_evaluation(self, channels, monkeypatch):
        # chi below 2 c sqrt(alpha^2 - 1/4): b < 0 on all of (0, 1)
        from gpsf import roots

        mode = dataclasses.replace(channels(0, 20.0, 10, 1)[1], chi=100.0)
        assert np.all(pruefer_beta(mode, np.linspace(1e-3, 1.0 - 1e-3, 999)) <= 0.0)

        def refused(*_):
            raise AssertionError("Phi evaluated")

        monkeypatch.setattr(roots, "eval_phi", refused)
        monkeypatch.setattr(roots, "tabulate", refused)
        with pytest.raises(NumericalError, match=r"\(p=0, N=10, n=1\).*positive nowhere"):
            find_roots(mode)

    def test_unconverged_newton_raises(self, channels, monkeypatch):
        from gpsf import roots

        monkeypatch.setattr(roots, "_NEWTON_MAX", 1)
        with pytest.raises(NumericalError, match="unconverged after 1 sweeps"):
            find_roots(channels(0, 20.0, 0, 14)[14])


class TestScanCost:
    def test_one_scan_and_batched_newton(self, channels, monkeypatch):
        # one Phi table at the scan points, at most six (Phi, Phi') tables, and
        # no evaluation at a single radius
        from gpsf import kernels, roots

        mode = channels(0, 20.0, 0, 14)[14]
        scans = _counting(monkeypatch, roots, "eval_phi")
        values = _counting(monkeypatch, kernels, "rbar_basis")
        pairs = _counting(monkeypatch, kernels, "rbar_basis_with_deriv")
        assert len(find_roots(mode)) == 14
        assert len(scans) == 1 and len(values) == 1 and np.ndim(scans[0][1]) == 1
        assert 1 <= len(pairs) <= 6


class TestRootExtremes:
    # c near 0, N >> c, the interval's odd channel, c = 1000, four modes with
    # chi <= 1/sqrt(c), which for n >= 1 takes c < 1/36, and N = 60 and 200, where
    # b < 0 on most of [0, x0] and the scan starts well above r = 0
    @pytest.mark.parametrize("p,c,N,n", [(0, 1e-3, 0, 10), (0, 5.0, 40, 6), (-1, 50.0, 1, 20),
                                         (0, 1000.0, 0, 399), (-1, 1e-8, 0, 1), (0, 1e-4, 0, 2),
                                         (-1, 0.02, 0, 1), (1, 1e-5, 3, 3), (0, 20.0, 60, 5),
                                         (1, 1e-3, 60, 5), (1, 1000.0, 200, 100)])
    def test_count_and_residual_in_extended_precision(self, channels, p, c, N, n):
        from oracles import phi_mp

        mode = channels(p, c, N, n)[n]
        roots = find_roots(mode)
        assert len(roots) == n
        eps = np.finfo(float).eps
        picks = range(n) if n <= 20 else np.linspace(0, n - 1, 4).astype(int)
        for i in picks:
            r = float(roots[i])
            # Phi / Phi' is the distance to the root of the extended-precision function
            assert abs(float(phi_mp(mode, r)) / gpsf.eval_phi_deriv(mode, r)) <= 4.0 * eps

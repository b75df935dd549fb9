import numpy as np
import pytest

import gpsf
from gpsf.prolate import NumericalError
from gpsf.roots import find_roots, pruefer_beta


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

    def test_march_and_newton_quality(self, channels):
        mode = channels(0, 20.0, 0, 14)[14]
        diag = []
        find_roots(mode, diagnostics=diag)
        assert max(d["march_err"] for d in diag) <= 1e-3
        assert max(d["newton_iters"] for d in diag) <= 8


class TestPrueferPhase:
    def test_phase_slope_negative_between_roots(self, channels):
        from gpsf.roots import _constants, _slope

        mode = channels(0, 20.0, 0, 12)[12]
        roots = find_roots(mode)
        rr = np.linspace(roots[0], roots[-1], 200)
        for r in rr:
            assert _slope(_constants(mode), float(r), 0.37) < 0.0

    def test_beta_positive_on_oscillatory_interval(self, channels):
        mode = channels(0, 20.0, 0, 12)[12]
        roots = find_roots(mode)
        for r in np.linspace(roots[0], roots[-1], 50):
            assert pruefer_beta(mode, float(r)) > 0.0

    def test_turning_point_closed_form(self, channels):
        # for p=1, N=0 the singular term of the phase coefficient drops
        # out and the turning point is exactly sqrt(chi)/c (chi < c^2)
        from gpsf.roots import _turning_point

        mode = channels(1, 20.0, 0, 5)[5]
        assert mode.chi < 400.0
        x0 = _turning_point(mode)
        assert x0 == pytest.approx(np.sqrt(mode.chi) / 20.0, abs=1e-12)


class TestRootErrors:
    def test_bisection_fallback_brackets(self, channels):
        mode = channels(0, 20.0, 0, 14)[14]
        roots = find_roots(mode)
        from gpsf.roots import _newton

        with pytest.raises(NumericalError):
            # interval with no sign change
            _newton(mode, 0.5 * (roots[0] + roots[1]) + 0.4 * (roots[1] - roots[0]),
                    roots[0] + 0.6 * (roots[1] - roots[0]),
                    roots[1] - 0.1 * (roots[1] - roots[0]))


class TestMarchCost:
    def test_slope_evaluations_per_interval(self, channels, monkeypatch):
        # RK4 at 12 steps per pi of phase: 48 slope evaluations per interval
        from gpsf import roots

        mode = channels(0, 20.0, 0, 14)[14]
        calls = []
        real = roots._slope

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(roots, "_slope", counted)
        assert len(find_roots(mode)) == 14
        assert len(calls) == 48 * 13


class TestRootExtremes:
    # c near 0, N >> c, the interval's odd channel, c = 1000, and four modes with
    # chi <= 1/sqrt(c), which for n >= 1 takes c < 1/36
    @pytest.mark.parametrize("p,c,N,n", [(0, 1e-3, 0, 10), (0, 5.0, 40, 6), (-1, 50.0, 1, 20),
                                         (0, 1000.0, 0, 399), (-1, 1e-8, 0, 1), (0, 1e-4, 0, 2),
                                         (-1, 0.02, 0, 1), (1, 1e-5, 3, 3)])
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

"""Roots of the radial functions via the Pruefer phase transform.

The weighted function phi = r^((p+1)/2) Phi satisfies a second-order
equation phi'' + a(r) phi' + b(r) phi = 0 whose phase variable theta,
defined by phi'/phi = sqrt(b) tan(theta), decreases monotonically through
the oscillatory interval and passes pi/2 (mod pi) exactly at the roots.
Marching r as a function of theta therefore steps from one root to the
next, by classical fourth-order Runge-Kutta at 12 steps per pi of phase;
a Newton polish on Phi removes the marching error.  The march starts at
the largest root, which one path finds for every mode: a sign scan of Phi
on Chebyshev-spaced points below the turning point, then Newton.
"""

from __future__ import annotations

import math

import numpy as np

from .prolate import NumericalError, ZernikeCoeffs, eval_phi, eval_phi_and_deriv

__all__ = ["find_roots", "pruefer_beta", "pruefer_alpha"]

_NEWTON_MAX = 30
_RK_STEPS = 12  # RK4 steps per pi of phase, independent of n: 48 slope evaluations


def pruefer_alpha(r: float) -> float:
    """First-order coefficient a(r) = -2r / (1 - r^2)."""
    return -2.0 * r / (1.0 - r * r)


def _constants(mode: ZernikeCoeffs) -> tuple[float, float, float]:
    # (1/4 - (N+p/2)^2, chi, c^2): all of the mode that the phase coefficients read
    ch = mode.channel
    return 0.25 - ch.alpha * ch.alpha, mode.chi, ch.c * ch.c


def _beta_and_deriv(const: tuple[float, float, float], r: float) -> tuple[float, float]:
    # b(r) and b'(r) from the mode constants of _constants
    q, chi, c2 = const
    r2 = r * r
    omr = 1.0 - r2
    b = q / (r2 * omr) + (chi - c2 * r2) / omr
    db = q * (4.0 * r2 - 2.0) / (r2 * r * omr * omr) + (
        -2.0 * c2 * r * omr + 2.0 * r * (chi - c2 * r2)
    ) / (omr * omr)
    return b, db


def pruefer_beta(mode: ZernikeCoeffs, r: float) -> float:
    """Zeroth-order coefficient b(r) of the weighted-equation form.

    b(r) = (1/4 - (N+p/2)^2) / (r^2 (1-r^2)) + (chi - c^2 r^2) / (1-r^2).
    Positive b marks the oscillatory region.
    """
    return _beta_and_deriv(_constants(mode), r)[0]


def _slope(const: tuple[float, float, float], r: float, theta: float) -> float:
    # d theta / dr from the mode constants of _constants
    b, db = _beta_and_deriv(const, r)
    if b <= 0.0:
        b = 1e-30
    return -math.sqrt(b) - (db / (4.0 * b) + pruefer_alpha(r) / 2.0) * math.sin(2.0 * theta)


def _turning_point(mode: ZernikeCoeffs) -> float:
    """Upper root of b(r) in (0, 1) by bisection; 1 if b stays positive."""
    hi = 1.0 - 1e-12
    if pruefer_beta(mode, hi) > 0.0:
        return 1.0
    grid = np.linspace(1e-6, hi, 512)
    vals = _beta_and_deriv(_constants(mode), grid)[0]
    pos = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if len(pos) == 0:
        return 1.0
    lo, up = float(grid[pos[-1]]), float(grid[pos[-1] + 1])
    while up - lo > 1e-14:
        mid = 0.5 * (lo + up)
        if pruefer_beta(mode, mid) > 0.0:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)


def _newton(mode: ZernikeCoeffs, r0: float, lo: float, hi: float):
    """Newton iteration on Phi with bisection fallback inside [lo, hi]."""
    r = r0
    prev_step = math.inf
    for it in range(1, _NEWTON_MAX + 1):
        f, df = eval_phi_and_deriv(mode, r)
        if df == 0.0:
            break
        step = f / df
        rn = r - step
        if not lo < rn < hi:
            break
        r = rn
        scale = max(abs(r), 0.05)
        # converged, or cycling at the round-off floor
        if abs(step) < 1e-14 * scale or (abs(step) >= prev_step and abs(step) < 1e-9 * scale):
            return r, it
        prev_step = abs(step)
    # bisection fallback on a bracketing interval around the estimate
    a, b = lo, hi
    fa = eval_phi(mode, a)
    fb = eval_phi(mode, b)
    if fa == 0.0:
        return a, _NEWTON_MAX
    if fb == 0.0:
        return b, _NEWTON_MAX
    if fa * fb > 0.0:
        raise NumericalError(
            f"no sign change in [{a:.6g}, {b:.6g}] while polishing a root of {mode.mode_id}"
        )
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = eval_phi(mode, m)
        if fm == 0.0 or b - a < 1e-16:
            return m, _NEWTON_MAX
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b), _NEWTON_MAX


def _largest_root_scan(mode: ZernikeCoeffs, x0: float):
    """Chebyshev-spaced sign scan below the turning point, then Newton."""
    n = mode.n
    m = max(5 * n, 16)
    j = np.arange(m + 1)
    pts = x0 / 2.0 * (1.0 + np.cos(math.pi * j / m))  # descending from x0
    pts = np.clip(pts, 1e-12, x0)
    vals = eval_phi(mode, pts)
    sgn = np.sign(vals)
    flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0)
    if len(flips) == 0:
        raise NumericalError(f"no sign change of {mode.mode_id} below the turning point")
    i = flips[0]  # first change moving down from x0
    lo, hi = float(pts[i + 1]), float(pts[i])
    return _newton(mode, 0.5 * (lo + hi), lo, hi)


def _march_interval(const: tuple[float, float, float], r_start: float, x0: float) -> float:
    """RK4 march of r(theta) across one pi of phase, starting at a root.

    ``const`` holds the mode constants of :func:`_constants`; every stage
    is clamped to [1e-9, x0].
    """
    h = math.pi / _RK_STEPS
    r = r_start
    theta = math.pi / 2.0
    lo_guard = 1e-9
    for _ in range(_RK_STEPS):
        k1 = 1.0 / _slope(const, r, theta)
        k2 = 1.0 / _slope(const, min(max(r + 0.5 * h * k1, lo_guard), x0), theta + 0.5 * h)
        k3 = 1.0 / _slope(const, min(max(r + 0.5 * h * k2, lo_guard), x0), theta + 0.5 * h)
        k4 = 1.0 / _slope(const, min(max(r + h * k3, lo_guard), x0), theta + h)
        r = min(max(r + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), lo_guard), x0)
        theta += h
    return r


def find_roots(mode: ZernikeCoeffs, diagnostics: list | None = None) -> np.ndarray:
    """All n roots of Phi_{N,n} in (0, 1), ascending.

    The largest root is bracketed by a Chebyshev-spaced sign scan below
    the turning point of the phase coefficient and polished with Newton;
    the remaining roots are reached by marching the phase equation one pi
    at a time with classical fourth-order Runge-Kutta (12 steps, 48 slope
    evaluations) and polishing each landing with Newton.

    ``diagnostics``, when given a list, receives one dict per root with
    the pre-polish marching error and Newton iteration count.

    Raises
    ------
    NumericalError
        If the scan finds no sign change, or the number of polished roots
        differs from n.
    """
    n = mode.n
    if n == 0:
        return np.empty(0)
    x0 = _turning_point(mode)
    r_top, its = _largest_root_scan(mode, x0)
    if diagnostics is not None:
        diagnostics.append({"root": r_top, "march_err": 0.0, "newton_iters": its})
    roots = [r_top]
    const = _constants(mode)
    for _ in range(n - 1):
        r_est = _march_interval(const, roots[-1], x0)
        width = roots[-1] - r_est
        lo = max(r_est - 0.6 * abs(width), 1e-12)
        hi = min(r_est + 0.6 * abs(width), roots[-1] * (1.0 - 1e-12))
        r_k, its = _newton(mode, r_est, lo, hi)
        if diagnostics is not None:
            diagnostics.append(
                {"root": r_k, "march_err": abs(r_k - r_est), "newton_iters": its}
            )
        roots.append(r_k)
    roots = np.array(roots[::-1])
    if len(roots) != n or np.any(np.diff(roots) <= 0.0) or roots[0] <= 0.0 or roots[-1] >= 1.0:
        raise NumericalError(
            f"expected {n} ascending roots in (0,1) for {mode.mode_id}, got {roots}"
        )
    return roots

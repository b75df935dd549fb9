"""Roots of the radial functions: one sign scan, then Newton on all brackets at once.

The weighted function phi = r^((p+1)/2) Phi satisfies a second-order
equation phi'' + a(r) phi' + b(r) phi = 0, and Phi oscillates only where
the phase coefficient b is positive.  b bounds the scan: one evaluation of
Phi at Chebyshev-spaced points of that oscillatory interval brackets every
root by a sign change, and a safeguarded Newton iteration polishes all the
brackets together, one batched (Phi, Phi') tabulation per sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .prolate import NumericalError, ZernikeCoeffs, eval_phi, tabulate

__all__ = ["find_roots", "pruefer_beta"]

_NEWTON_MAX = 30
_TOP = 1.0 - 1e-12
_B_GRID = np.linspace(1e-6, _TOP, 512)  # where the sign of b is sampled


def pruefer_beta(mode: ZernikeCoeffs, r):
    """Zeroth-order coefficient b(r) of the weighted-equation form, at a radius or an array.

    b(r) = (1/4 - (N+p/2)^2) / (r^2 (1-r^2)) + (chi - c^2 r^2) / (1-r^2).
    Positive b marks the oscillatory region.
    """
    ch = mode.channel
    r2 = r * r
    omr = 1.0 - r2
    return (0.25 - ch.alpha * ch.alpha) / (r2 * omr) + (mode.chi - ch.c * ch.c * r2) / omr


def _turning_point(mode: ZernikeCoeffs) -> float:
    """Upper root of b(r) in (0, 1) by bisection; 1 if b stays positive."""
    if pruefer_beta(mode, _TOP) > 0.0:
        return 1.0
    vals = pruefer_beta(mode, _B_GRID)
    pos = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if len(pos) == 0:
        return 1.0
    lo, up = float(_B_GRID[pos[-1]]), float(_B_GRID[pos[-1] + 1])
    while up - lo > 1e-14:
        mid = 0.5 * (lo + up)
        if pruefer_beta(mode, mid) > 0.0:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)


def _scan_start(mode: ZernikeCoeffs) -> float:
    """Last point of the b grid before b turns positive; 0 if b is positive from its start."""
    first = np.flatnonzero(pruefer_beta(mode, _B_GRID) > 0.0)
    return float(_B_GRID[first[0] - 1]) if len(first) and first[0] > 0 else 0.0


def find_roots(mode: ZernikeCoeffs) -> np.ndarray:
    """All n roots of Phi_{N,n} in (0, 1), ascending.

    Phi is evaluated once at max(5n, 16) + 1 Chebyshev-spaced points of the
    oscillatory interval [x_in, x0]: x0 is the turning point of the phase
    coefficient b, x_in the last point of its sign grid before b turns
    positive.  Each sign change is one bracket.  Newton then runs on every
    bracket at once, from the secant through its ends: a sweep tabulates
    (Phi, Phi') at the unconverged roots,
    shrinks each bracket by the sign of Phi and replaces a step that leaves
    its bracket by the bracket's midpoint.  A root has converged when its
    Newton step is below 1e-14 max(r, 0.05), or stops shrinking below 1e-9
    of that; this last step is taken wherever it lands.

    Raises
    ------
    NumericalError
        If the scan finds other than n sign changes, or a root has not
        converged after 30 sweeps.
    """
    n = mode.n
    if n == 0:
        return np.empty(0)
    x_in, x0 = _scan_start(mode), _turning_point(mode)
    m = max(5 * n, 16)
    pts = x_in + (x0 - x_in) / 2.0 * (1.0 - np.cos(math.pi * np.arange(m + 1) / m))
    vals = eval_phi(mode, pts)
    sgn = np.sign(vals)
    flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0)
    if len(flips) != n:
        raise NumericalError(f"the scan of {mode.mode_id} on [{x_in:.6g}, {x0:.6g}] found "
                             f"{len(flips)} sign changes, expected {n}")
    lo, hi, sgn_lo = pts[flips], pts[flips + 1], sgn[flips]
    f_lo, f_hi = vals[flips], vals[flips + 1]
    r = lo + (hi - lo) * (f_lo / (f_lo - f_hi))  # the secant through the bracket's ends
    prev = np.full(n, math.inf)
    todo = np.arange(n)
    for _ in range(_NEWTON_MAX):
        ra, la, ha = r[todo], lo[todo], hi[todo]
        f, df = tabulate(mode, ra, deriv=True)
        above = f * sgn_lo[todo] > 0.0  # Phi has its sign at lo: the root lies above r
        la, ha = np.where(above, ra, la), np.where(above, ha, ra)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f == 0.0, 0.0, f / df)
        rn = ra - step
        step, scale = np.abs(step), np.maximum(np.abs(rn), 0.05)
        # converged, or cycling at the round-off floor, where Phi's sign no longer bounds r
        done = (step < 1e-14 * scale) | ((step >= prev[todo]) & (step < 1e-9 * scale))
        rn = np.where(done | ((la < rn) & (rn < ha)), rn, 0.5 * (la + ha))
        r[todo], lo[todo], hi[todo], prev[todo] = rn, la, ha, step
        todo = todo[~done]
        if len(todo) == 0:
            return r
    raise NumericalError(f"Newton left {len(todo)} of the {n} roots of {mode.mode_id} "
                         f"unconverged after {_NEWTON_MAX} sweeps")

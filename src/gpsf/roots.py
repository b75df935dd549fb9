"""Roots of the radial functions: one sign scan, then Newton on all brackets at once.

The weighted function phi = r^((p+1)/2) Phi satisfies a second-order
equation phi'' + a(r) phi' + b(r) phi = 0, and Phi oscillates only where
the phase coefficient b is positive, on an interval whose ends are closed
forms.  One evaluation of Phi at Chebyshev-spaced points of that interval
brackets every root by a sign change, and a safeguarded Newton iteration
polishes all the brackets together, one batched (Phi, Phi') tabulation per
sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .prolate import NumericalError, ZernikeCoeffs, eval_phi, tabulate

__all__ = ["find_roots"]

_NEWTON_MAX = 30


def _oscillatory_interval(mode: ZernikeCoeffs) -> tuple[float, float]:
    """[x_in, x0]: where the phase coefficient b is positive in (0, 1].

    r^2 (1 - r^2) b = -(c^2 s^2 - chi s + g) with s = r^2 and g = alpha^2 - 1/4,
    so b > 0 between the roots g/q and q/c^2 of that quadratic in s, with
    q = (chi + sqrt(chi^2 - 4 c^2 g)) / 2, free of cancellation.  x_in is 0
    when g <= 0, and x0 is 1 when q >= c^2.  Raises NumericalError if b is
    positive nowhere in (0, 1).
    """
    ch, chi = mode.channel, mode.chi
    g, c2 = ch.alpha * ch.alpha - 0.25, ch.c * ch.c
    disc = chi * chi - 4.0 * c2 * g
    q = 0.5 * (chi + math.sqrt(disc)) if disc >= 0.0 else 0.0
    if q > 0.0:
        x_in = math.sqrt(g / q) if g > 0.0 else 0.0
        x0 = math.sqrt(q / c2) if q < c2 else 1.0
        if x_in < x0:
            return x_in, x0
    raise NumericalError(f"the phase coefficient of {mode.mode_id} (chi = {chi:.6g}) "
                         f"is positive nowhere in (0, 1)")


def find_roots(mode: ZernikeCoeffs) -> np.ndarray:
    """All n roots of Phi_{N,n} in (0, 1), ascending.

    Phi is evaluated once at max(5n, 16) + 1 Chebyshev-spaced points of the
    oscillatory interval [x_in, x0], where the phase coefficient b is
    positive (:func:`_oscillatory_interval`: both ends in closed form).
    Each sign change is one bracket.  Newton then runs on every bracket at
    once, from the secant through its ends: a sweep tabulates (Phi, Phi')
    at the unconverged roots, shrinks each bracket by the sign of Phi and
    replaces a step that leaves its bracket by the bracket's midpoint.  A
    root has converged when its Newton step is below 1e-14 max(r, 0.05), or
    stops shrinking below 1e-9 of that; this last step is taken wherever it
    lands.

    Raises
    ------
    NumericalError
        If b is positive nowhere in (0, 1), the scan finds other than n sign
        changes, or a root has not converged after 30 sweeps.
    """
    n = mode.n
    if n == 0:
        return np.empty(0)
    x_in, x0 = _oscillatory_interval(mode)
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

"""Radial quadrature rules for band-limited functions on (0, 1).

Two designs over the weight x^(p+1): interpolatory rules at the n roots
of Phi_{0,n} with weights matching the first n modes ("chebyshev"), and
Gauss-type rules whose n nodes and weights match 2n modes, obtained by
Newton iteration on the moment discrepancies starting from the
half-band-limit interpolatory rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import _flapack
from .prolate import NumericalError, ProlateChannel, ZernikeCoeffs, solve_channel, tabulate
from .roots import find_roots

__all__ = ["QuadratureRule1D", "chebyshev_rule", "gaussian_rule"]

_WEIGHT_RESIDUAL_TOL = 1e-10
_HALVINGS_MAX = 40
_STAGNATION_TOL = 1e3  # times eps * scale: below it Newton tries only the full step
_NEWTON_SWEEPS = 60

dgelsy, dgelsy_lwork = _flapack.dgelsy, _flapack.dgelsy_lwork


@dataclass(frozen=True)
class QuadratureRule1D:
    """Radial nodes/weights on (0, 1) integrating against weight x^(p+1)."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    channel: ProlateChannel
    exactness: int

    def __post_init__(self):
        if self.kind not in ("chebyshev", "gaussian"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)


def _mode_moments(modes: list[ZernikeCoeffs], p: int) -> np.ndarray:
    # integral of Phi_{0,k} x^(p+1) dx = a_{k,0} / sqrt(p+2)
    return np.array([m.coeffs[0] for m in modes]) / math.sqrt(p + 2.0)


def chebyshev_rule(channel: ProlateChannel, n: int) -> QuadratureRule1D:
    """Interpolatory rule at the n roots of Phi_{0,n}, exact for n modes.

    The weights solve the n-by-n collocation system matching the moments
    of Phi_{0,0..n-1}; the system is solved by a column-pivoted
    orthogonal factorization since the collocation matrix can be
    ill-conditioned for large n.  Nonpositive weights are reported with a
    warning (observed positive in practice, but not guaranteed).

    Raises
    ------
    NumericalError
        If the collocation table or the moments are not finite, if the
        factorization reports an illegal argument, or if the weights miss
        the moments by more than 1e-10 of the largest.
    """
    if n < 1:
        raise ValueError("rule size must be at least 1")
    if channel.N != 0:
        raise ValueError("radial rules are built on the N=0 channel")
    modes = solve_channel(channel, n)
    nodes = find_roots(modes[n])
    M = tabulate(modes[:n], nodes)
    rhs = _mode_moments(modes[:n], channel.p)
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        raise NumericalError(f"collocation system for chebyshev rule n={n} is not finite")
    # what scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy") calls: reciprocal condition eps,
    # a free pivot for every column, the workspace size from a query
    eps = np.finfo(float).eps
    work, info = dgelsy_lwork(n, n, 1, eps)
    if info == 0:
        _, w, _, _, info = dgelsy(M, rhs, np.zeros(n, dtype=np.int32), eps, int(work), False, False)
    if info != 0:
        raise NumericalError(f"collocation solve for chebyshev rule n={n}: dgelsy returned info={info}")
    resid = float(np.max(np.abs(M @ w - rhs)))
    if resid > _WEIGHT_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(rhs)))):
        raise NumericalError(
            f"collocation solve failed for chebyshev rule n={n}: residual {resid:.3e}"
        )
    if np.any(w <= 0.0):
        warnings.warn(
            f"chebyshev rule n={n}, c={channel.c}: nonpositive weights present",
            RuntimeWarning,
            stacklevel=2,
        )
    return QuadratureRule1D(nodes, w, "chebyshev", channel, n - 1)


def gaussian_rule(channel: ProlateChannel, n: int) -> QuadratureRule1D:
    """Gauss-type rule: n nodes/weights matching the first 2n modes.

    Starts from the half-band-limit interpolatory rule and runs Newton on
    the 2n moment discrepancies d.  Iteration stops once max|d| reaches
    20 eps times the largest moment.  Above the stagnation tolerance of
    1e3 eps times that moment, a step that does not lower the 2-norm of d
    is halved, up to 40 times; below it, at the round-off floor, only the
    full step is tried, and the iteration stops when it fails.

    Raises
    ------
    NumericalError
        On a singular Newton system, or if 40 halvings fail to lower the
        residual while the discrepancies are still above the stagnation
        tolerance.
    """
    if n < 1:
        raise ValueError("rule size must be at least 1")
    if channel.N != 0:
        raise ValueError("radial rules are built on the N=0 channel")
    half = ProlateChannel(channel.p, channel.c / 2.0, 0)
    start = chebyshev_rule(half, n)
    r = start.nodes.copy()
    w = start.weights.copy()
    modes = solve_channel(channel, 2 * n - 1)
    mom = _mode_moments(modes, channel.p)
    scale = max(float(np.max(np.abs(mom))), 1e-12)
    eps = np.finfo(float).eps

    P, D = tabulate(modes, r, deriv=True)
    d = mom - P @ w
    for _ in range(_NEWTON_SWEEPS):
        dnorm = float(np.linalg.norm(d))
        dmax = float(np.max(np.abs(d)))
        if dmax <= 20.0 * eps * scale:
            break
        J = np.hstack([D * w[None, :], P])
        try:
            x = np.linalg.solve(J, d)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Newton system for gaussian rule n={n}") from exc
        at_floor = dmax <= _STAGNATION_TOL * eps * scale
        step = 1.0
        for _ in range(1 if at_floor else _HALVINGS_MAX):
            rn = r + step * x[:n]
            wn = w + step * x[n:]
            Pn, Dn = tabulate(modes, rn, deriv=True)
            dn = mom - Pn @ wn
            if float(np.linalg.norm(dn)) < dnorm:
                r, w, d, P, D = rn, wn, dn, Pn, Dn
                break
            step /= 2.0
        else:
            if not at_floor:
                raise NumericalError(f"gaussian rule n={n} stagnated; last residual {dmax:.3e}")
            break
    order = np.argsort(r)
    return QuadratureRule1D(r[order], w[order], "gaussian", channel, 2 * n - 1)

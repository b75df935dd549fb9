"""Radial eigenproblem for generalized prolate spheroidal functions.

For a channel (p, c, N) the radial functions Phi_{N,n} diagonalize both a
compact integral operator with Bessel kernel and a second-order
differential operator.  In the basis of weighted Zernike polynomials the
differential operator is an infinite symmetric tridiagonal matrix whose
expansion coefficients decay exponentially once the Zernike degree passes
e*c, so a finite section captures every mode to machine precision.  This
module builds that matrix, truncates it using the decay bound, solves the
eigenproblem and evaluates Phi_{N,n} and its derivatives anywhere on
[0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import kernels

__all__ = [
    "ProlateChannel",
    "RadialModeId",
    "chi_zero",
    "TridiagSym",
    "ZernikeCoeffs",
    "NumericalError",
    "tridiag_entries",
    "tridiag_matrix",
    "choose_truncation",
    "solve_channel",
    "tabulate",
    "eval_phi",
    "eval_phi_deriv",
    "eval_phi_and_deriv",
    "eval_phi_second_deriv",
    "mode_to_json",
    "mode_from_json",
]

_SAFETY_MARGIN = 10  # extra basis functions beyond the decay bound
_MAX_ENLARGEMENTS = 5  # truncation steps of 2 * _SAFETY_MARGIN before a solve gives up


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


def _check_order(p: int, N: int) -> None:
    # the dimension parameter and, on the interval, its two angular orders
    if p < -1:
        raise ValueError(f"p must be >= -1, got {p}")
    if p == -1 and N not in (0, 1):
        raise ValueError(f"for p=-1 the angular order must be 0 or 1, got N={N}")


@dataclass(frozen=True)
class ProlateChannel:
    """Radial channel: dimension parameter p, band limit c, angular order N."""

    p: int
    c: float
    N: int

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"band limit must be positive, got {self.c}")
        if self.N < 0:
            raise ValueError(f"angular order must be nonnegative, got {self.N}")
        _check_order(self.p, self.N)

    @property
    def alpha(self) -> float:
        return self.N + self.p / 2.0

    def mode_id(self, n: int) -> RadialModeId:
        return RadialModeId(self.p, self.N, n)


@dataclass(frozen=True)
class RadialModeId:
    """Identifier (p, N, n) of a radial mode on the unit ball in R^(p+2).

    ``p >= -1`` is the dimension parameter, ``N`` the angular order and
    ``n`` the radial mode index.  For p = -1 only N in {0, 1} exists.
    """

    p: int
    N: int
    n: int

    def __post_init__(self):
        if self.N < 0 or self.n < 0:
            raise ValueError(f"N and n must be nonnegative, got N={self.N} n={self.n}")
        _check_order(self.p, self.N)

    @property
    def alpha(self) -> float:
        return self.N + self.p / 2.0


def chi_zero(mode: RadialModeId) -> float:
    """Zero-bandwidth eigenvalue ``(N+p/2+2n+1/2)(N+p/2+2n+3/2)``."""
    s = mode.alpha + 2.0 * mode.n
    return (s + 0.5) * (s + 1.5)


@dataclass(frozen=True)
class TridiagSym:
    """Symmetric tridiagonal matrix (main diagonal plus one off-diagonal)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.diag) < 1 or len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one entry shorter than diag")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))):
            raise ValueError("matrix entries must be finite")

    @property
    def size(self) -> int:
        return len(self.diag)


@dataclass(frozen=True)
class ZernikeCoeffs:
    """One solved radial mode: eigenvalue chi and Zernike coefficients.

    ``coeffs[k]`` multiplies the orthonormal radial polynomial of degree
    N + 2k; the vector has unit Euclidean norm and its sign is fixed so
    that Phi_{N,n}(1) > 0.
    """

    channel: ProlateChannel
    n: int
    chi: float
    coeffs: np.ndarray = field(repr=False)

    @property
    def mode_id(self) -> RadialModeId:
        return self.channel.mode_id(self.n)

    def phi(self, r):
        return eval_phi(self, r)

    def phi_deriv(self, r):
        return eval_phi_deriv(self, r)

    def phi_at_one(self) -> float:
        return float(self.coeffs @ _phi_one_weights(self.channel, len(self.coeffs)))


def _diag_and_super(channel: ProlateChannel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # diagonal b and superdiagonal c of the operator matrix at the given rows
    al, c2, k = channel.alpha, channel.c * channel.c, rows.astype(float)
    t = 2.0 * k + al
    shift = 0.0 if al == 0.0 else c2 * al * al / (2.0 * t * (t + 2.0))
    b = shift + 0.5 * c2 + (t + 0.5) * (t + 1.5)  # chi_zero(row) = (t + 1/2)(t + 3/2)
    cx = c2 * (k + 1.0 + al) * (k + 1.0) / ((t + 2.0) * np.sqrt(t + 3.0) * np.sqrt(t + 1.0))
    return b, cx


def tridiag_entries(channel: ProlateChannel, row: int) -> tuple[float, float, float]:
    """Entries (a_row, b_row, c_row) of the tridiagonal operator matrix.

    ``b_row`` is the diagonal, ``c_row`` the superdiagonal and ``a_row``
    the subdiagonal (zero and unused for row 0; equals ``c_{row-1}``
    otherwise).  In the zero-bandwidth limit the diagonal reduces to the
    classical eigenvalues and the off-diagonals vanish.

    Note: the diagonal is chi_{N,row}(0) plus c^2 times the (positive
    definite) diagonal part of multiplication by r^2, and the
    off-diagonals are positive; with this orientation the matrix
    eigenvalues are the chi_{N,n}(c), ascending, and the eigenvectors are
    the Zernike coefficient vectors of Phi_{N,n}.
    """
    if row < 0:
        raise ValueError("row must be nonnegative")
    b, cx = _diag_and_super(channel, np.arange(max(row - 1, 0), row + 1))
    return (float(cx[0]) if row > 0 else 0.0), float(b[-1]), float(cx[-1])


def tridiag_matrix(channel: ProlateChannel, K: int) -> TridiagSym:
    """Upper-left K-by-K section of the operator matrix."""
    b, cx = _diag_and_super(channel, np.arange(K))
    return TridiagSym(b, cx[:-1])


def choose_truncation(channel: ProlateChannel, nmax: int, eps: float) -> int:
    """Number of Zernike coefficients to retain for modes up to ``nmax``.

    Picks the smallest K for which the coefficient-decay bound applies
    (N + 2K >= e*c) and the halving envelope (1/2)^(N+p/2+2K+1) falls
    below ``eps``, then adds a fixed safety margin and makes room for the
    requested modes.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    k_regime = max(0, math.ceil((math.e * channel.c - channel.N) / 2.0))
    # (1/2)^(N+p/2+2k+1) < eps  <=>  (N+p/2+2k+1) ln 2 > -ln eps
    k_halving = max(0, math.ceil(((-math.log(eps) / math.log(2.0)) - channel.alpha - 1.0) / 2.0))
    K = max(k_regime, k_halving) + _SAFETY_MARGIN
    return max(K, nmax + _SAFETY_MARGIN)


def _phi_one_weights(channel: ProlateChannel, K: int) -> np.ndarray:
    # value at r = 1 of each orthonormal basis element: its scale sqrt(2(2k+alpha+1))
    k = np.arange(K)
    return np.sqrt(2.0 * (2.0 * k + channel.alpha + 1.0))


def solve_channel(
    channel: ProlateChannel,
    nmax: int,
    eps: float = 1e-16,
    K: int | None = None,
) -> list[ZernikeCoeffs]:
    """Solve the truncated eigenproblem for modes 0..nmax of a channel.

    Returns the modes sorted by ascending eigenvalue chi (strict increase
    is asserted; the spectrum is simple).  Each coefficient vector is
    normalized and sign-fixed so Phi_{N,n}(1) > 0.  The last coefficient
    of every mode must fall below 10 * ``eps``; while it does not, the
    truncation K grows by 20 and the channel is solved again.

    Raises
    ------
    NumericalError
        If the tridiagonal eigensolver fails to converge, or the tail is
        still above 10 * ``eps`` after five enlargements of K.
    """
    if K is None:
        K = choose_truncation(channel, nmax, eps)
    for step in range(_MAX_ENLARGEMENTS + 1):
        mat = tridiag_matrix(channel, K)
        try:
            chis, vecs = eigh_tridiagonal(
                mat.diag, mat.offdiag, select="i", select_range=(0, nmax)
            )
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(
                f"tridiagonal eigensolver failed for channel {channel} (K={K}): {exc}"
            ) from exc
        tail = np.max(np.abs(vecs[-1, :]))
        if tail < 10.0 * eps:
            break
        if step == _MAX_ENLARGEMENTS:
            raise NumericalError(f"coefficient tail {tail:.3e} of channel {channel} is still "
                                 f"above {10.0 * eps:.3e} at K={K} after {step} enlargements")
        K += 2 * _SAFETY_MARGIN
    if np.any(np.diff(chis) <= 0.0):
        raise NumericalError(f"eigenvalues not strictly increasing for channel {channel}")
    # one row per mode; each stacked 1-by-K product is one dot product, as in norm(v) and v @ w
    V = vecs.T
    A = V / np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0]
    A[(A[:, None, :] @ _phi_one_weights(channel, K)[:, None])[:, 0, 0] < 0.0] *= -1.0
    return [ZernikeCoeffs(channel, n, float(chis[n]), A[n]) for n in range(nmax + 1)]


def _as_points(r) -> np.ndarray:
    return np.atleast_1d(np.ascontiguousarray(r, dtype=float))


def tabulate(modes, r, deriv=False):
    """Phi of modes of one channel at radii in [0, 1], from one basis build.

    ``modes`` is one ZernikeCoeffs or a sequence of modes of one channel;
    the table is A @ B, with A the coefficient vector or the stacked vectors
    (one row per mode) and B the radial basis at ``r``.  With ``deriv`` it
    is the pair (A @ B, A @ dB/dr).
    """
    single = isinstance(modes, ZernikeCoeffs)
    ch = modes.channel if single else modes[0].channel
    if not single and any(m.channel != ch for m in modes):
        raise ValueError("tabulated modes must share one channel")
    A = modes.coeffs if single else np.vstack([m.coeffs for m in modes])
    r = _as_points(r)
    if deriv:
        B, D = kernels.rbar_basis_with_deriv(ch.alpha, ch.N, A.shape[-1], r)
        return A @ B, A @ D
    return A @ kernels.rbar_basis(ch.alpha, ch.N, A.shape[-1], r)


def eval_phi_and_deriv(mode: ZernikeCoeffs, r):
    """(Phi_{N,n}, dPhi_{N,n}/dr) at radii in [0, 1].

    At a scalar radius this is one fused pass over the recurrence on plain
    floats, with no basis matrix; at an array of radii the basis and its
    derivative are tabulated once.
    """
    ch = mode.channel
    if np.ndim(r) == 0:
        return kernels.phi_and_deriv(ch.alpha, ch.N, mode.coeffs.tolist(), r)
    return tabulate(mode, r, deriv=True)


def eval_phi(mode: ZernikeCoeffs, r):
    """Evaluate Phi_{N,n} at radii in [0, 1] from its Zernike expansion."""
    if np.ndim(r) == 0:
        return eval_phi_and_deriv(mode, r)[0]
    return tabulate(mode, r)


def eval_phi_deriv(mode: ZernikeCoeffs, r):
    """Evaluate dPhi_{N,n}/dr, term-wise on the Zernike expansion."""
    return eval_phi_and_deriv(mode, r)[1]


def eval_phi_second_deriv(mode: ZernikeCoeffs, r):
    """Second derivative of Phi_{N,n} on (0, 1), from its differential equation.

    Solving the equation for Phi'' avoids a second differentiated
    recurrence:
    x^2(1-x^2) Phi'' = -((p+1)x - (p+3)x^3) Phi'
                       - (chi x^2 - (p+1)(p+3)x^2/4 - N(N+p) - c^2 x^4) Phi.
    """
    x = float(r) if np.ndim(r) == 0 else _as_points(r)
    if np.any((x <= 0.0) | (x >= 1.0)):
        raise ValueError("second derivative is evaluated on the open interval (0, 1)")
    p, c, N = mode.channel.p, mode.channel.c, mode.channel.N
    phi, dphi = eval_phi_and_deriv(mode, x)
    x2 = x * x
    num = -(((p + 1.0) * x - (p + 3.0) * x2 * x) * dphi) - (
        mode.chi * x2 - 0.25 * (p + 1.0) * (p + 3.0) * x2 - N * (N + p) - c * c * x2 * x2
    ) * phi
    return num / (x2 * (1.0 - x2))


def mode_to_json(mode: ZernikeCoeffs) -> str:
    """Serialize a solved mode; floats round-trip exactly."""
    return json.dumps(
        {
            "p": mode.channel.p,
            "c": mode.channel.c,
            "N": mode.channel.N,
            "n": mode.n,
            "chi": mode.chi,
            "coeffs": mode.coeffs.tolist(),
        }
    )


def mode_from_json(text: str) -> ZernikeCoeffs:
    """Inverse of :func:`mode_to_json`."""
    d = json.loads(text)
    return ZernikeCoeffs(
        ProlateChannel(d["p"], d["c"], d["N"]),
        d["n"],
        d["chi"],
        np.asarray(d["coeffs"], dtype=float),
    )

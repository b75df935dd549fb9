"""Radial eigenproblem for generalized prolate spheroidal functions.

For a channel (p, c, N) the radial functions Phi_{N,n} diagonalize both a
compact integral operator with Bessel kernel and a second-order
differential operator.  In the basis of weighted Zernike polynomials the
differential operator is an infinite symmetric tridiagonal matrix whose
expansion coefficients decay exponentially once the Zernike degree passes
e*c, so a finite section captures every mode to machine precision.  This
module builds that matrix, truncates it using the decay bound, solves the
eigenproblem and evaluates Phi_{N,n} and its first derivative anywhere
on [0, 1].
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = [
    "ProlateChannel",
    "RadialModeId",
    "ZernikeCoeffs",
    "NumericalError",
    "tridiag_matrix",
    "choose_truncation",
    "solve_channel",
    "tabulate",
    "tabulate_channels",
    "eval_phi",
    "eval_phi_deriv",
    "eval_phi_and_deriv",
]

_TOLERANCE = 1e-16  # halving-envelope target; a solve accepts last coefficients below 10x it
_SAFETY_MARGIN = 10  # extra basis functions beyond the decay bound
_MAX_ENLARGEMENTS = 5  # truncation steps of 2 * _SAFETY_MARGIN before a solve gives up
_SUPPORT_CUT = 1e-20  # coefficients at or below it are left out of evaluation
_MAX_TRUNCATION = 20_000  # most Zernike coefficients per mode: band limits up to about 14700
_MAX_VECTOR_ENTRIES = 25_000_000  # most eigenvector entries K * (nmax + 1) per solve: 200 MB
_MIN_BAND_LIMIT = 1e-60  # at 1e-75 inverse iteration gets the coefficients of order c^2 wrong
_BLOCK_ENTRIES = 1 << 15  # most basis entries (rows times columns) of a batched build of several channels
# All K eigenvalues by root-free QR (dsterf, 17-26 ns K^2) against the m lowest by bisection
# (dstebz, 370-420 ns K m), one BLAS thread, 2-vCPU Xeon VM: they break even at m = K/16 for
# K = 38 and m = K/22 for K = 1370, so QR is taken from m = K/16 on.
_QR_FRACTION = 16


dsterf, dstebz, dstein = kernels._flapack.dsterf, kernels._flapack.dstebz, kernels._flapack.dstein


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
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"band limit must be positive and finite, got {self.c}")
        if self.c < _MIN_BAND_LIMIT:
            raise ValueError(f"band limit {self.c} is below {_MIN_BAND_LIMIT}, where the "
                             "eigenvalue chain has no correct digits")
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


@dataclass(frozen=True)
class ZernikeCoeffs:
    """One solved radial mode: eigenvalue chi and Zernike coefficients.

    ``coeffs[k]`` multiplies the orthonormal radial polynomial of degree
    N + 2k; the vector has unit Euclidean norm and its sign is fixed so
    that Phi_{N,n}(1) > 0 where Phi(1) is above the round-off of its sum;
    elsewhere the sign is arbitrary and can change with the truncation K.
    Evaluation reads only the first ``support`` coefficients; the full
    vector is kept for the eigenvalue series.
    """

    channel: ProlateChannel
    n: int
    chi: float
    coeffs: np.ndarray = field(repr=False)

    @property
    def mode_id(self) -> RadialModeId:
        return self.channel.mode_id(self.n)

    def phi_at_one(self) -> float:
        return float(self.coeffs @ _phi_one_weights(self.channel, len(self.coeffs)))

    @functools.cached_property
    def support(self) -> int:
        """Number of leading coefficients up to the last one above 1e-20 in magnitude.

        The vector has unit norm, so the cut lies 1e5 below the 1e-15 tail
        that :func:`solve_channel` accepts; the whole vector when none is above it.
        """
        above = np.flatnonzero(np.abs(self.coeffs) > _SUPPORT_CUT)
        return int(above[-1]) + 1 if len(above) else len(self.coeffs)


def _diag_and_super(channel: ProlateChannel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # diagonal b and superdiagonal c of the operator matrix at the given rows
    al, c2, k = channel.alpha, channel.c * channel.c, rows.astype(float)
    t = 2.0 * k + al
    shift = 0.0 if al == 0.0 else c2 * al * al / (2.0 * t * (t + 2.0))
    b = shift + 0.5 * c2 + (t + 0.5) * (t + 1.5)  # chi at c = 0: (t + 1/2)(t + 3/2)
    cx = c2 * (k + 1.0 + al) * (k + 1.0) / ((t + 2.0) * np.sqrt(t + 3.0) * np.sqrt(t + 1.0))
    return b, cx


def tridiag_matrix(channel: ProlateChannel, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-left K-by-K section of the operator matrix: (diagonal, off-diagonal).

    The diagonal is chi_{N,k}(0) = (N+p/2+2k+1/2)(N+p/2+2k+3/2) plus c^2
    times the (positive definite) diagonal of multiplication by r^2, and
    the off-diagonal entries are positive, so the eigenvalues are the
    chi_{N,n}(c), ascending, and the eigenvectors the Zernike coefficient
    vectors of Phi_{N,n}.  A non-finite entry (at a huge c) raises
    ``ValueError``.
    """
    b, cx = _diag_and_super(channel, np.arange(K))
    offdiag = cx[:-1]
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(offdiag))):
        raise ValueError("matrix entries must be finite")
    return b, offdiag


def choose_truncation(channel: ProlateChannel, nmax: int) -> int:
    """Number of Zernike coefficients to retain for modes up to ``nmax``.

    Picks the smallest K for which the coefficient-decay bound applies
    (N + 2K >= e*c) and the halving envelope (1/2)^(N+p/2+2K+1) falls
    below 1e-16, then adds a fixed safety margin and makes room for the
    requested modes.  A K above 20000 raises ``ValueError``: that keeps
    band limits up to about c = 14700 and nmax up to 19990.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got nmax={nmax}")
    # clamped in floats first: e*c overflows at c = 1e308, and the clamp still fails the limit
    k_regime = max(0, math.ceil(min((math.e * channel.c - channel.N) / 2.0, _MAX_TRUNCATION)))
    # (1/2)^(N+p/2+2k+1) < tol  <=>  (N+p/2+2k+1) ln 2 > -ln tol
    k_halving = max(0, math.ceil(((-math.log(_TOLERANCE) / math.log(2.0)) - channel.alpha - 1.0) / 2.0))
    K = max(k_regime, k_halving, nmax) + _SAFETY_MARGIN
    if K > _MAX_TRUNCATION:
        raise ValueError(f"{channel} with nmax={nmax} needs more than {_MAX_TRUNCATION} "
                         "Zernike coefficients per mode")
    return K


def _phi_one_weights(channel: ProlateChannel, K: int) -> np.ndarray:
    # value at r = 1 of each orthonormal basis element: its scale sqrt(2(2k+alpha+1))
    k = np.arange(K)
    return np.sqrt(2.0 * (2.0 * k + channel.alpha + 1.0))


def eigh_tridiagonal(d, e, m):
    """The m lowest eigenpairs of a symmetric tridiagonal matrix.

    ``d`` is the diagonal and ``e`` the off-diagonal; it returns the
    ascending eigenvalues and the unit eigenvectors as columns, as
    ``scipy.linalg.eigh_tridiagonal`` does with ``select="i"`` and
    ``select_range=(0, m - 1)``.  The eigenvalues come from root-free QR of
    the whole matrix (``dsterf``) when at least K/16 of the K are asked for,
    else from bisection (``dstebz``).  The eigenvectors come from inverse
    iteration (``dstein``) on the whole matrix as one block, which computes
    the small trailing coefficients to relative accuracy, also across
    off-diagonals so small that bisection would split the matrix there.

    Raises
    ------
    ValueError
        If m is not between 1 and K.
    numpy.linalg.LinAlgError
        If a LAPACK routine returns a nonzero ``info``.
    """
    K = len(d)
    if not 1 <= m <= K:
        raise ValueError(f"{m} eigenpairs asked of a {K}-by-{K} matrix")
    if _QR_FRACTION * m >= K:
        w, info = dsterf(d, e)
        _check_info("dsterf", info)
        w = w[:m]
    else:
        # range 2 selects by index, one-based; tolerance 0 is dstebz's default
        found, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, m, 0.0, "E")
        _check_info("dstebz", info)
        w = w[:found]
    # every eigenvalue in block 1, and block 1 ends at row K (dstein reads only isplit[0])
    v, info = dstein(d, e, w, np.ones(K, dtype=np.int32), np.full(K, K, dtype=np.int32))
    _check_info("dstein", info)
    return w, v


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info={info}")


def solve_channel(channel: ProlateChannel, nmax: int) -> list[ZernikeCoeffs]:
    """Solve the truncated eigenproblem for modes 0..nmax of a channel.

    Returns the modes sorted by ascending eigenvalue chi (strict increase
    is asserted; the spectrum is simple).  Each coefficient vector is
    normalized and sign-fixed (see :class:`ZernikeCoeffs`).  The last
    coefficient of every mode must fall below 1e-15; while it does not, the
    truncation K of :func:`choose_truncation` grows by 20 and the channel is solved again.

    Raises
    ------
    ValueError
        Before any solve, if the starting K times nmax + 1, the eigenvector
        entries asked for, is above 25,000,000 (200 MB of float64): at
        small c that keeps nmax up to 4994.
    NumericalError
        If a LAPACK routine of the eigensolve returns a nonzero ``info``, or the tail is
        still above 1e-15 after five enlargements of K.
    """
    K = choose_truncation(channel, nmax)
    if K * (nmax + 1) > _MAX_VECTOR_ENTRIES:
        raise ValueError(f"{channel} with nmax={nmax} needs {K} x {nmax + 1} eigenvector entries, "
                         f"above the limit of {_MAX_VECTOR_ENTRIES}")
    for step in range(_MAX_ENLARGEMENTS + 1):
        diag, offdiag = tridiag_matrix(channel, K)
        try:
            chis, vecs = eigh_tridiagonal(diag, offdiag, nmax + 1)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"tridiagonal eigensolver failed for channel {channel} (K={K}): {exc}"
            ) from exc
        tail = np.max(np.abs(vecs[-1, :]))
        if tail < 10.0 * _TOLERANCE:
            break
        if step == _MAX_ENLARGEMENTS:
            raise NumericalError(f"coefficient tail {tail:.3e} of channel {channel} is still "
                                 f"above {10.0 * _TOLERANCE:.3e} at K={K} after {step} enlargements")
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


def _stacked(modes):
    # (channel, K, A): the modes' one channel, their widest support and the
    # coefficient vector, or the stacked vectors, cut to it
    if isinstance(modes, ZernikeCoeffs):
        return modes.channel, modes.support, modes.coeffs[: modes.support]
    if len(modes) == 0:
        raise ValueError("no modes to tabulate")
    ch = modes[0].channel
    # one solve's modes share one channel object, so identity settles most of them
    if any(m.channel is not ch and m.channel != ch for m in modes):
        raise ValueError("tabulated modes must share one channel")
    A = np.array([m.coeffs for m in modes])
    # the widest support from one comparison: the last column with an entry above the cut,
    # or every column when a row has none (as ZernikeCoeffs.support takes it)
    above = np.abs(A) > _SUPPORT_CUT
    K = int(np.flatnonzero(above.any(axis=0))[-1]) + 1 if above.any(axis=1).all() else A.shape[1]
    return ch, K, np.ascontiguousarray(A[:, :K])


def tabulate(modes, r, deriv=False):
    """Phi of modes of one channel at radii in [0, 1], from one basis build.

    ``modes`` is one ZernikeCoeffs or a sequence of modes of one channel
    whose coefficient vectors have one length, as one solve's modes do; the
    table is A @ B, with A the coefficient vector or the stacked vectors
    (one row per mode) and B the radial basis at ``r``.  A and B stop at the
    largest ``support`` among the modes.  With ``deriv`` it is the pair
    (A @ B, A @ dB/dr).  Several channels at the same radii are tabulated
    together by :func:`tabulate_channels`.
    """
    ch, K, A = _stacked(modes)
    r = _as_points(r)
    if deriv:
        B, D = kernels.rbar_basis_with_deriv(ch.alpha, ch.N, K, r)
        return A @ B, A @ D
    return A @ kernels.rbar_basis(ch.alpha, ch.N, K, r)


def tabulate_channels(mode_lists, r):
    """Phi of several channels' modes at the same radii: an iterator over one table per channel.

    Table i is ``tabulate(mode_lists[i], r)`` bit for bit.  One basis build
    serves a block of consecutive channels, each channel taking the radii as
    its row.  A block holds at least one channel, and more while its widest
    support times its columns stays within 32768 entries; the blocks are
    built as the tables are read, so that a large request holds one block's
    basis, coefficients and tables at a time.
    """
    if len(mode_lists) == 0:
        raise ValueError("no channels to tabulate")
    r = _as_points(r)
    blocks = _channel_blocks(mode_lists, len(r))
    return itertools.chain.from_iterable(_block_tables(block, K, r) for block, K in blocks)


def _block_tables(block, K, r):
    # the tables of one block of stacked channels, from one basis build
    m = len(r)
    B = kernels.rbar_basis([ch.alpha for ch, _, _ in block], [ch.N for ch, _, _ in block], K,
                           np.broadcast_to(r, (len(block), m)))
    # each channel's rows and columns copied out contiguous, as its own build returns them,
    # so that the product rounds as tabulate's does
    return [A @ np.ascontiguousarray(B[:k, j * m : (j + 1) * m]) for j, (_, k, A) in enumerate(block)]


def _channel_blocks(mode_lists, m):
    # (block, K): the stacked modes of consecutive channels and their widest support, a block
    # at a time, so that only one block's coefficients are held
    block, K = [], 0
    for modes in mode_lists:
        stack = _stacked(modes)
        if block and max(K, stack[1]) * (len(block) + 1) * m > _BLOCK_ENTRIES:
            yield block, K
            block, K = [], 0
        block.append(stack)
        K = max(K, stack[1])
    yield block, K


def _finite_table(mode: ZernikeCoeffs, r, deriv=False):
    # tabulate(mode, r, deriv), raising where the basis recurrence overflowed (as at
    # c = 4000, N = 2000) instead of returning its inf and NaN; a radius that is not
    # finite is refused first
    r = _as_points(r)
    if not np.isfinite(r).all():
        raise ValueError(f"radii must be finite, got {r[~np.isfinite(r)][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        table = tabulate(mode, r, deriv)
    if not np.all(np.isfinite(table)):
        raise NumericalError(f"values of {mode.mode_id} are not finite at some of the radii: "
                             "the radial basis overflows")
    return table


def eval_phi_and_deriv(mode: ZernikeCoeffs, r):
    """(Phi_{N,n}, dPhi_{N,n}/dr) at radii in [0, 1], from one basis build.

    A scalar radius gives a pair of floats, read from a one-point table.  A
    radius that is not finite raises ``ValueError``; a value that is not
    finite raises ``NumericalError`` naming the mode.
    """
    f, df = _finite_table(mode, r, deriv=True)
    return (float(f[0]), float(df[0])) if np.ndim(r) == 0 else (f, df)


def eval_phi(mode: ZernikeCoeffs, r):
    """Phi_{N,n} at radii in [0, 1]; raises as ``eval_phi_and_deriv`` does."""
    f = _finite_table(mode, r)
    return float(f[0]) if np.ndim(r) == 0 else f


def eval_phi_deriv(mode: ZernikeCoeffs, r):
    """Evaluate dPhi_{N,n}/dr, term-wise on the Zernike expansion."""
    return eval_phi_and_deriv(mode, r)[1]

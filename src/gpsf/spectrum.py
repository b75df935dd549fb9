"""Eigenvalues of the radial integral operator and the full spectrum.

beta_{N,n} is the eigenvalue of the Bessel-kernel integral operator on
the radial channel; lambda = i^N (2 pi)^(p/2+1) beta is the eigenvalue of
the exponential-kernel operator on the ball, and mu = (c/2pi)^(p+2)
|lambda|^2 in [0, 1) is the eigenvalue of its normal square.  The top
eigenvalue of a channel comes from a direct series; the rest follow from
a ratio chain built out of expansion integrals that reduce to coefficient
dot products.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .prolate import ChannelSolve, NumericalError, ProlateChannel, RadialModeId, ZernikeCoeffs, solve_channel

__all__ = [
    "EigenTriple",
    "beta_direct",
    "convert_rtprime",
    "rphi_prime_coeffs",
    "beta_chain",
    "mu_from_beta",
    "lambda_from_beta",
    "mu_sum_check",
    "beta_dc",
    "harmonic_count",
]

_EPS = np.finfo(float).eps
_DEN_UNDERFLOW = 1e-280
_CHAIN_UNDERFLOW = 1e-250
_FIRST_BATCH = 16  # highest mode of the first solve of a chain that stops at mu_stop
_CHAIN_BLOCK = 1 << 16  # most coefficients in one row block of the chain's integrals


@dataclass(frozen=True)
class EigenTriple:
    """Eigenvalue of one mode in its three equivalent normalizations."""

    beta: float
    lam: complex
    mu: float
    mode: RadialModeId


# i^N by N mod 4, exact at every N: Python's 1j**N takes the polar form above N = 100
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def lambda_from_beta(p: int, N: int, beta: float) -> complex:
    """lambda = i^N (2 pi)^(p/2+1) beta; real for even N, imaginary for odd."""
    return _I_POWERS[N % 4] * (2.0 * math.pi) ** (p / 2.0 + 1.0) * beta


_MU_CEIL = math.nextafter(1.0, 0.0)


def mu_from_beta(p: int, c: float, beta: float) -> float:
    """mu = (c/2pi)^(p+2) |lambda|^2, which collapses to c^(p+2) beta^2.

    mu < 1 holds analytically; deep in the flat region the float product
    can overshoot 1 by a few ulp, so the bound is enforced here.
    """
    return min(c ** (p + 2) * beta * beta, _MU_CEIL)


def _series_weights_log(alpha: float, K: int) -> np.ndarray:
    # log of sqrt(2(2i+alpha+1)) * binom(i+alpha, i)
    i = np.arange(K)
    return (
        0.5 * np.log(2.0 * (2.0 * i + alpha + 1.0))
        + np.array(list(map(math.lgamma, (i + alpha + 1.0).tolist())))
        - np.array(list(map(math.lgamma, (i + 1.0).tolist())))
        - math.lgamma(alpha + 1.0)
    )


def beta_direct(mode: ZernikeCoeffs) -> float:
    """Top-quality eigenvalue of one mode from its coefficient series.

    The numerator is ``a_0 c^N / (2^(N+p/2) Gamma(N+p/2+1) sqrt(2N+p+2))``
    and the denominator is the alternating series
    ``sum_i a_i sqrt(2(2i+N+p/2+1)) (-1)^i binom(i+N+p/2, i)``,
    truncated as soon as the partial sum is a factor of machine precision
    larger than the next term.

    The partial sums come from one left-to-right accumulation, so they are
    the sums of a term-by-term loop bit for bit.

    Raises
    ------
    NumericalError
        If the denominator series produces a non-finite partial sum at or
        before the stopping term, or underflows below 1e-280.
    """
    ch = mode.channel
    al = ch.alpha
    log_num = (
        ch.N * math.log(ch.c)
        - al * math.log(2.0)
        - math.lgamma(al + 1.0)
        - 0.5 * math.log(2.0 * ch.N + ch.p + 2.0)
    )
    terms = mode.coeffs * np.exp(_series_weights_log(al, len(mode.coeffs)))
    terms[1::2] *= -1.0
    terms[0] += 0.0  # the loop's first sum 0.0 + t_0: a -0.0 turns +0.0
    sums = np.cumsum(terms)
    # the first j whose partial sum is a factor 1/eps above term j+1, else the last term
    stop = np.flatnonzero(np.abs(sums[:-1]) > np.abs(terms[1:]) / _EPS)
    j = int(stop[0]) if len(stop) else len(terms) - 1
    s = float(sums[j])
    if not math.isfinite(s):  # a sum that is not finite stays so: name the first
        raise NumericalError(
            f"denominator series diverged at term {np.flatnonzero(~np.isfinite(sums))[0]} "
            f"for mode {mode.mode_id}"
        )
    if abs(s) < _DEN_UNDERFLOW:
        raise NumericalError(
            f"denominator series underflow ({s:.3e}) for mode {mode.mode_id}"
        )
    return math.exp(log_num) * float(mode.coeffs[0]) / s


def convert_rtprime(coeffs: np.ndarray, N: int, p: int) -> np.ndarray:
    """Re-expand ``sum_i x_i r tbar'_{N,i}(r)`` in the tbar basis.

    Uses the two-term identity (nu = N + (p+1)/2, T the unnormalized
    weighted radial polynomial)

        r T'_{N,i}(r) = r T'_{N,i-1}(r) + (nu+2i-1) T_{N,i-1}(r)
                        + (nu+2i) T_{N,i}(r),      r T'_{N,0} = nu T_{N,0},

    whose repeated application turns the input into suffix sums: with
    ``sigma_i = sum_{j>=i} x_j`` (in the unnormalized scaling) the output
    T-coefficient at i is ``sigma_i (nu+2i) + sigma_{i+1} (nu+2i+1)``.
    The orthonormal rescaling is applied on the way in and out.  A 2-D
    input holds one expansion per row.  The work is done in place on two
    arrays of the input's shape that the function allocates itself.
    """
    x = np.asarray(coeffs, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("coefficients must be a nonempty vector or one vector per row")
    al = N + p / 2.0
    nu = al + 0.5
    k = np.arange(x.shape[-1])
    scale = np.sqrt(2.0 * (2.0 * k + al + 1.0))
    if not np.all(scale > 0.0):
        raise NumericalError("degenerate leading coupling coefficient")
    y = x * scale
    np.cumsum(y[..., ::-1], axis=-1, out=y[..., ::-1])  # y holds sigma
    nxt = y[..., 1:] * (nu + 2.0 * k[:-1] + 1.0)
    y *= nu + 2.0 * k
    y[..., :-1] += nxt
    y[..., -1] += 0.0  # the sigma past the end is 0: a -0.0 turns +0.0, as in the two-term sum
    y /= scale
    return y


def rphi_prime_coeffs(mode: ZernikeCoeffs) -> np.ndarray:
    """Expansion of ``r Phi'_{N,n}(r)`` in the orthonormal Zernike basis.

    With phi = r^((p+1)/2) Phi the product rule gives
    r Phi' = r^(-(p+1)/2) (r phi' - (p+1)/2 phi), so the Zernike
    coefficients are the converted derivative expansion minus
    (p+1)/2 times the mode's own coefficients.
    """
    return _rphi_prime(mode.coeffs, mode.channel.N, mode.channel.p)


def _rphi_prime(A: np.ndarray, N: int, p: int) -> np.ndarray:
    # r Phi' of the expansion in A, or of each of its rows (see rphi_prime_coeffs)
    X = convert_rtprime(A, N, p)
    X -= (p + 1) / 2.0 * A
    return X


def beta_chain(
    channel: ProlateChannel,
    kmax: int,
    modes: ChannelSolve | None = None,
    mu_stop: float = 0.0,
) -> list[EigenTriple]:
    """Eigenvalues beta_{N,0..kmax} by the ratio chain.

    The leading eigenvalue comes from :func:`beta_direct`; successive
    ones follow from the exact ratio

        beta_{n+1} / beta_n = I(n, n+1) / I(n+1, n),
        I(n, m) = integral of r Phi'_{N,n} Phi_{N,m} r^(p+1) dr,

    with both integrals evaluated as dot products of coefficient rows,
    sliced from ``modes.coeffs`` in blocks of at most 65536 coefficients.
    The chain runs on floats and builds an :class:`EigenTriple` per mode
    only once it has stopped.  It stops early (with a warning) if a
    denominator integral falls below 1e-250, or once mu drops below
    ``mu_stop``.  ``modes`` is a :class:`ChannelSolve` of this channel
    whose rows start with modes 0..kmax in order, else ``ValueError``.  When
    it is not given the chain solves its own: with ``mu_stop`` > 0 only the
    first 17 modes, and twice as many each time the chain uses them all.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if modes is None:
        betas, mus = _sized_chain(channel, kmax, mu_stop, _FIRST_BATCH if mu_stop > 0.0 else kmax)
    else:
        if modes.ns[: kmax + 1].tolist() != list(range(kmax + 1)):
            raise ValueError(f"the chain to kmax={kmax} needs {kmax + 1} modes, n = 0..{kmax} in order, "
                             f"got {len(modes)} rows, starting {modes.ns[:3].tolist()}")
        if modes.channel != channel:
            raise ValueError(f"mode {modes.ns[0]} of {modes.channel} given for the chain of {channel}")
        betas, mus = _chain(channel, modes[: kmax + 1], mu_stop, 3)
    p, N = channel.p, channel.N
    return [EigenTriple(b, lambda_from_beta(p, N, b), mu, channel.mode_id(n))
            for n, (b, mu) in enumerate(zip(betas, mus))]


def _sized_chain(channel, kmax: int, mu_stop: float, first: int) -> tuple[list[float], list[float]]:
    # solve modes 0..first, and twice as many while the chain uses every
    # solved mode without reaching mu_stop or kmax
    m = min(first, kmax)
    while True:
        betas, mus = _chain(channel, solve_channel(channel, m), mu_stop, 4)
        if m == kmax or len(mus) <= m or mus[-1] < mu_stop:
            return betas, mus
        m = min(2 * m + 1, kmax)


def _chain(channel: ProlateChannel, modes: ChannelSolve, mu_stop: float,
           stacklevel: int) -> tuple[list[float], list[float]]:
    # (betas, mus) of the ratio chain over all of ``modes`` (see beta_chain); a truncation
    # warns at the frame ``stacklevel``, the caller of the public function
    cp = channel.c ** (channel.p + 2)
    b = beta_direct(modes[0])
    betas, mus = [b], [min(cp * b * b, _MU_CEIL)]  # mu_from_beta, inlined
    nums, dens = _integrals(modes.coeffs, channel.N, channel.p)
    for n, (num, den) in enumerate(zip(nums, dens)):
        if abs(den) < _CHAIN_UNDERFLOW:
            warnings.warn(f"ratio chain truncated at n={n + 1} for channel {channel}: "
                          f"denominator integral {den:.3e}", RuntimeWarning, stacklevel=stacklevel)
            break
        b = b * num / den
        betas.append(b)
        mus.append(min(cp * b * b, _MU_CEIL))
        if mus[-1] < mu_stop:
            break
    return betas, mus


def _integrals(coeffs: np.ndarray, N: int, p: int) -> tuple[list[float], list[float]]:
    # I(n, n+1) and I(n+1, n) of every n, a block of coefficient rows at a time; a block repeats
    # the last row of the one before it.  Each integral is a stacked 1-by-K product, so one dot product
    rows = max(1, _CHAIN_BLOCK // coeffs.shape[1])
    nums, dens = [], []
    for i in range(0, len(coeffs) - 1, rows):
        A = coeffs[i : i + rows + 1]
        X = _rphi_prime(A, N, p)
        nums += (X[:-1, None, :] @ A[1:, :, None])[:, 0, 0].tolist()
        dens += (X[1:, None, :] @ A[:-1, :, None])[:, 0, 0].tolist()
    return nums, dens


def harmonic_count(p: int, N: int) -> int:
    """Number of linearly independent surface harmonics of degree N."""
    if p == -1:
        return 1 if N <= 1 else 0
    if N == 0:
        return 1
    if p == 0:
        return 2
    return round((2 * N + p) * math.exp(math.lgamma(N + p) - math.lgamma(p + 1) - math.lgamma(N + 1)))


def mu_sum_check(p: int, c: float, Nmax: int, nmax: int) -> tuple[float, float]:
    """Partial spectral sum of mu with multiplicities vs its closed form.

    Returns ``(partial_sum, closed_form)`` where the closed form is
    ``c^(p+2) / (2^(p+2) Gamma(p/2+2)^2)``.  Channels are cut off once mu
    falls below 1e-26 since the omitted tail decays super-exponentially,
    and end at the first channel whose top mu is below 1e-26.  Each channel
    first solves as many modes as the previous chain used (mu falls with N).
    A channel costs its solves, one :func:`beta_direct` each, and array work:
    its chain runs on floats and its mus are summed in mode order, with no
    :class:`EigenTriple` built.  A negative ``Nmax`` or ``nmax`` raises
    ``ValueError``.
    """
    if Nmax < 0 or nmax < 0:
        raise ValueError(f"Nmax and nmax must be nonnegative, got Nmax={Nmax}, nmax={nmax}")
    total = 0.0
    batch = _FIRST_BATCH
    for N in range(Nmax + 1):
        h = harmonic_count(p, N)
        if h == 0:
            continue
        _, mus = _sized_chain(ProlateChannel(p, c, N), nmax, 1e-26, batch)
        total += h * sum(mus)
        if mus[0] < 1e-26:
            break
        batch = len(mus) - 1
    closed = c ** (p + 2) / (2.0 ** (p + 2) * math.gamma(p / 2.0 + 2.0) ** 2)
    return total, closed


def beta_dc(mode: ZernikeCoeffs, triple: EigenTriple) -> tuple[float, float]:
    """Derivatives of beta and mu with respect to the band limit.

    ``dbeta/dc = beta (Phi(1)^2 - (p+2)) / (2c)``; differentiating
    mu = c^(p+2) beta^2 then gives ``dmu/dc = (mu/c) Phi(1)^2``, which is
    nonnegative (mu is increasing in the band limit; finite differences
    confirm).
    """
    ch = mode.channel
    phi1sq = mode.phi_at_one() ** 2
    dbeta = triple.beta * (phi1sq - (ch.p + 2.0)) / (2.0 * ch.c)
    dmu = triple.mu / ch.c * phi1sq
    return dbeta, dmu

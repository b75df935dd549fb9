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

from .prolate import NumericalError, ProlateChannel, RadialModeId, ZernikeCoeffs, solve_channel

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


@dataclass(frozen=True)
class EigenTriple:
    """Eigenvalue of one mode in its three equivalent normalizations."""

    beta: float
    lam: complex
    mu: float
    mode: RadialModeId


def lambda_from_beta(p: int, N: int, beta: float) -> complex:
    """lambda = i^N (2 pi)^(p/2+1) beta; real for even N, imaginary for odd."""
    return (1j**N) * (2.0 * math.pi) ** (p / 2.0 + 1.0) * beta


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
    lg = np.vectorize(math.lgamma)
    return (
        0.5 * np.log(2.0 * (2.0 * i + alpha + 1.0))
        + lg(i + alpha + 1.0)
        - lg(i + 1.0)
        - math.lgamma(alpha + 1.0)
    )


def beta_direct(mode: ZernikeCoeffs) -> float:
    """Top-quality eigenvalue of one mode from its coefficient series.

    The numerator is ``a_0 c^N / (2^(N+p/2) Gamma(N+p/2+1) sqrt(2N+p+2))``
    and the denominator is the alternating series
    ``sum_i a_i sqrt(2(2i+N+p/2+1)) (-1)^i binom(i+N+p/2, i)``,
    truncated as soon as the partial sum is a factor of machine precision
    larger than the next term.

    Raises
    ------
    NumericalError
        If the denominator series produces a non-finite partial sum, or
        underflows below 1e-280.
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
    s = 0.0
    for j, t in enumerate(terms):
        s += t
        if not math.isfinite(s):
            raise NumericalError(
                f"denominator series diverged at term {j} for mode {mode.mode_id}"
            )
        if j + 1 < len(terms) and abs(s) > abs(terms[j + 1]) / _EPS:
            break
    if abs(s) < _DEN_UNDERFLOW:
        raise NumericalError(
            f"denominator series underflow ({s:.3e}) for mode {mode.mode_id}"
        )
    return math.exp(log_num) * mode.coeffs[0] / s


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
    modes: list[ZernikeCoeffs] | None = None,
    mu_stop: float = 0.0,
) -> list[EigenTriple]:
    """Eigenvalues beta_{N,0..kmax} by the ratio chain.

    The leading eigenvalue comes from :func:`beta_direct`; successive
    ones follow from the exact ratio

        beta_{n+1} / beta_n = I(n, n+1) / I(n+1, n),
        I(n, m) = integral of r Phi'_{N,n} Phi_{N,m} r^(p+1) dr,

    with both integrals evaluated as coefficient dot products.  The chain
    stops early (with a warning) if a denominator integral falls below
    1e-250, or once mu drops below ``mu_stop``.  With ``mu_stop`` > 0 and
    no ``modes``, only the modes the chain uses are solved: the first 17,
    and twice as many each time the chain uses them all.  ``modes`` of
    another channel raise ``ValueError``.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if modes is None:
        return _sized_chain(channel, kmax, mu_stop, _FIRST_BATCH if mu_stop > 0.0 else kmax)
    if len(modes) <= kmax:
        raise ValueError(f"the chain to kmax={kmax} needs {kmax + 1} modes, got {len(modes)}")
    stray = next((m for m in modes if m.channel is not channel and m.channel != channel), None)
    if stray is not None:
        raise ValueError(f"mode {stray.n} of {stray.channel} given for the chain of {channel}")
    return _chain(channel, modes[: kmax + 1], mu_stop)


def _sized_chain(channel, kmax: int, mu_stop: float, first: int) -> list[EigenTriple]:
    # solve modes 0..first, and twice as many while the chain uses every
    # solved mode without reaching mu_stop or kmax
    m = min(first, kmax)
    while True:
        chain = _chain(channel, solve_channel(channel, m), mu_stop)
        if m == kmax or len(chain) <= m or chain[-1].mu < mu_stop:
            return chain
        m = min(2 * m + 1, kmax)


def _chain(channel: ProlateChannel, modes: list[ZernikeCoeffs], mu_stop: float) -> list[EigenTriple]:
    # the ratio chain over all of ``modes`` (see beta_chain)
    p, c, N = channel.p, channel.c, channel.N

    def triple(n: int, beta: float) -> EigenTriple:
        return EigenTriple(beta, lambda_from_beta(p, N, beta), mu_from_beta(p, c, beta), channel.mode_id(n))

    out = [triple(0, beta_direct(modes[0]))]
    A = np.vstack([m.coeffs for m in modes])
    X = _rphi_prime(A, N, p)
    # I(n, n+1) and I(n+1, n) of every n, each a stacked 1-by-K product, so one dot product
    nums = (X[:-1, None, :] @ A[1:, :, None])[:, 0, 0].tolist()
    dens = (X[1:, None, :] @ A[:-1, :, None])[:, 0, 0].tolist()
    for n, (num, den) in enumerate(zip(nums, dens)):
        if abs(den) < _CHAIN_UNDERFLOW:
            warnings.warn(f"ratio chain truncated at n={n + 1} for channel {channel}: "
                          f"denominator integral {den:.3e}", RuntimeWarning, stacklevel=3)
            break
        out.append(triple(n + 1, out[-1].beta * num / den))
        if out[-1].mu < mu_stop:
            break
    return out


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
    A negative ``Nmax`` or ``nmax`` raises ``ValueError``.
    """
    if Nmax < 0 or nmax < 0:
        raise ValueError(f"Nmax and nmax must be nonnegative, got Nmax={Nmax}, nmax={nmax}")
    total = 0.0
    batch = _FIRST_BATCH
    for N in range(Nmax + 1):
        h = harmonic_count(p, N)
        if h == 0:
            continue
        triples = _sized_chain(ProlateChannel(p, c, N), nmax, 1e-26, batch)
        total += h * sum(t.mu for t in triples)
        if triples[0].mu < 1e-26:
            break
        batch = len(triples) - 1
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

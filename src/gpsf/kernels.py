"""The radial recurrence and the exactly rounded phase sum.

The normalized radial polynomials Rbar_k(r) = scale[k] P_k^(alpha,0)(1-2r^2) r^N
come from the Jacobi three-term recurrence.  ``rbar_basis`` and
``rbar_basis_with_deriv`` tabulate them as K-by-m matrices; ``phi_and_deriv``
sums a coefficient vector against the recurrence at one radius on plain
floats, keeping the running sums as it goes (Clenshaw, MTAC 9, 1955).
"""

import functools
import itertools
import math

import numpy as np

__all__ = ["rbar_basis", "rbar_basis_with_deriv", "phi_and_deriv", "phase_sum"]

_PHASE_CHUNK = 1 << 16  # terms per chunk handed to math.fsum


@functools.lru_cache(maxsize=64)
def _recurrence_tables(alpha, K):
    # float lists for P_{k+1} = (a0 + a1 y) P_k - b P_{k-1}, y = 1 - 2x, run as
    # (c0 - 2 a1 x) P_k - b P_{k-1} with c0 = a0 + a1 and x = r^2, which keeps
    # r^2 to full relative precision near r = 0 where 1 - 2r^2 would not; d/dy adds
    # a1 P_k to it for P'.  scale[k] is the signed orthonormalization.
    k = np.arange(1, max(K - 1, 1), dtype=np.float64)
    t = 2.0 * k + alpha
    den = 2.0 * (k + 1.0) * (k + alpha + 1.0) * t
    a1 = t * (t + 1.0) * (t + 2.0) / den
    c0 = (t + 1.0) * alpha * alpha / den + a1
    b = 2.0 * (k + alpha) * k * (t + 2.0) / den
    scale = np.sqrt(2.0 * (2.0 * np.arange(K, dtype=np.float64) + alpha + 1.0))
    scale[1::2] *= -1.0
    return c0.tolist(), a1.tolist(), b.tolist(), scale.tolist()


def _powers(N, r):
    # (r^N, d/dr r^N), with 0^0 = 1 and no negative power at r = 0
    drn = 0.0 * r if N == 0 else (1.0 + 0.0 * r if N == 1 else N * r ** (N - 1))
    return r**N, drn


def rbar_basis(alpha, N, K, r):
    """Basis matrix B[k, i] of the normalized radial polynomials at r[i]."""
    return _basis(alpha, N, K, r, False)[0]


def rbar_basis_with_deriv(alpha, N, K, r):
    """(B, dB/dr) pair for the normalized radial polynomials at r[i]."""
    return _basis(alpha, N, K, r, True)


def _basis(alpha, N, K, r, deriv):
    r = np.ascontiguousarray(r, dtype=np.float64)
    c0, a1, b, scale = _recurrence_tables(alpha, K)
    x = r * r
    rn, drn = _powers(N, r)
    m4r = -4.0 * r
    B = np.empty((K, r.shape[0]))
    D = np.empty_like(B) if deriv else None
    B[0] = scale[0] * rn
    if deriv:
        D[0] = scale[0] * drn
    if K > 1:
        pkm1, pk = np.ones_like(r), (alpha + 1.0) - (alpha + 2.0) * x
        dkm1, dk = np.zeros_like(r), np.full_like(r, (alpha + 2.0) / 2.0)
        for k in range(1, K):
            if k > 1:
                ay = c0[k - 2] - 2.0 * a1[k - 2] * x
                if deriv:
                    dkm1, dk = dk, ay * dk - b[k - 2] * dkm1 + a1[k - 2] * pk
                pkm1, pk = pk, ay * pk - b[k - 2] * pkm1
            B[k] = scale[k] * pk * rn
            if deriv:
                # d/dr [P(y(r)) r^N] = P'(y) (-4r) r^N + P(y) N r^(N-1)
                D[k] = scale[k] * (dk * m4r * rn + pk * drn)
    return B, D


def phi_and_deriv(alpha, N, coeffs, r):
    """(sum_k coeffs[k] Rbar_k(r), its r-derivative) at one radius r.

    Runs the recurrences for P_k and P_k' on Python floats and keeps the
    two coefficient sums as it goes; ``coeffs`` is a sequence of floats.
    """
    K = len(coeffs)
    c0, a1, b, scale = _recurrence_tables(alpha, K)
    w = [c * s for c, s in zip(coeffs, scale)]
    r = float(r)
    x = r * r
    pkm1, pk = 1.0, (alpha + 1.0) - (alpha + 2.0) * x
    dkm1, dk = 0.0, (alpha + 2.0) / 2.0
    s, sd = (w[0] + w[1] * pk, w[1] * dk) if K > 1 else (w[0], 0.0)
    for c0k, a1k, bk, wk in zip(c0, a1, b, w[2:]):
        ay = c0k - 2.0 * a1k * x
        dkm1, dk = dk, ay * dk - bk * dkm1 + a1k * pk
        pkm1, pk = pk, ay * pk - bk * pkm1
        s += wk * pk
        sd += wk * dk
    rn, drn = _powers(N, r)
    return s * rn, sd * (-4.0 * r) * rn + s * drn


def _fsum_terms(weights, phases, fn):
    # exactly rounded sum of weights * fn(phases), chunked to bound memory
    n = weights.shape[0]
    return math.fsum(
        itertools.chain.from_iterable(
            memoryview(weights[i : i + _PHASE_CHUNK] * fn(phases[i : i + _PHASE_CHUNK]))
            for i in range(0, n, _PHASE_CHUNK)
        )
    )


def phase_sum(weights, phases):
    """(sum of w cos(ph), sum of w sin(ph)), each exactly rounded by math.fsum."""
    w = np.ravel(np.asarray(weights, dtype=np.float64))
    ph = np.ravel(np.asarray(phases, dtype=np.float64))
    return _fsum_terms(w, ph, np.cos), _fsum_terms(w, ph, np.sin)

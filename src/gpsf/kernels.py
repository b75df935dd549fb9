"""The radial recurrence and the exactly rounded phase sum.

The normalized radial polynomials Rbar_k(r) = scale[k] P_k^(alpha,0)(1-2r^2) r^N
come from the Jacobi three-term recurrence.  ``rbar_basis`` and
``rbar_basis_with_deriv`` tabulate them as K-by-m matrices, one row per
degree; every evaluation of the radial functions, at one radius or many,
is a product with such a matrix.  Given alpha and N of C channels and a
row of radii for each, one recurrence pass serves them all, each channel's
block of columns with the bits of its own build.
"""

import itertools
import math

import numpy as np

__all__ = ["rbar_basis", "rbar_basis_with_deriv", "phase_sum"]

_PHASE_CHUNK = 1 << 16  # terms per chunk handed to math.fsum
_TABLE_ALPHAS = 256  # recurrence tables kept, one per alpha, least recently used dropped first
_tables: dict[float, tuple] = {}


def _build_tables(alpha, K):
    # coefficients for P_{k+1} = (a0 + a1 y) P_k - b P_{k-1}, y = 1 - 2x, run as
    # (c0 - 2 a1 x) P_k - b P_{k-1} with c0 = a0 + a1 and x = r^2, which keeps
    # r^2 to full relative precision near r = 0 where 1 - 2r^2 would not; d/dy adds
    # a1 P_k to it for P'.  scale[k] is the signed orthonormalization.  Every
    # entry is an elementwise function of (k, alpha) alone, so a longer table
    # starts with the bits of a shorter one.
    k = np.arange(1, max(K - 1, 1), dtype=np.float64)
    t = 2.0 * k + alpha
    den = 2.0 * (k + 1.0) * (k + alpha + 1.0) * t
    a1 = t * (t + 1.0) * (t + 2.0) / den
    c0 = (t + 1.0) * alpha * alpha / den + a1
    b = 2.0 * (k + alpha) * k * (t + 2.0) / den
    scale = np.sqrt(2.0 * (2.0 * np.arange(K, dtype=np.float64) + alpha + 1.0))
    scale[1::2] *= -1.0
    arrays = (c0, a1, b, scale)
    return arrays, tuple(a.tolist() for a in arrays)


def _recurrence_tables(alpha, K):
    """(arrays, lists) of (c0, a1, b, scale) at alpha, for K or more rows.

    One table is kept per alpha and grown, at least twofold, when a larger K is
    asked for; a caller reads the first K - 2 entries of c0, a1, b and the
    first K of scale, as float64 arrays or as lists of floats.
    """
    tables = _tables.pop(alpha, None)
    rows = len(tables[0][3]) if tables else 0  # the length of scale
    if rows < K:
        tables = _build_tables(alpha, max(K, 2 * rows))
    _tables[alpha] = tables  # reinserted last: the dict runs from least to most recently used
    if len(_tables) > _TABLE_ALPHAS:
        del _tables[next(iter(_tables))]
    return tables


def _powers(N, r):
    # (r^N, d/dr r^N), with 0^0 = 1 and no negative power at r = 0
    drn = 0.0 * r if N == 0 else (1.0 + 0.0 * r if N == 1 else N * r ** (N - 1))
    return r**N, drn


def rbar_basis(alpha, N, K, r):
    """Basis matrix B[k, i] of the normalized radial polynomials at r[i].

    ``alpha`` and ``N`` are scalars with radii ``r`` of shape (m,), or they
    name C channels, one entry each, with one row of radii per channel in
    ``r`` of shape (C, m).  The batched matrix is K by C*m: column j*m + i is
    channel j at r[j, i], and channel j's block of m columns has the bits of
    the scalar call at (alpha[j], N[j]) and r[j].
    """
    return _basis(alpha, N, K, r, False)[0]


def rbar_basis_with_deriv(alpha, N, K, r):
    """(B, dB/dr) pair for the normalized radial polynomials at r; batched as ``rbar_basis``."""
    return _basis(alpha, N, K, r, True)


def _basis(alpha, N, K, r, deriv):
    r = np.ascontiguousarray(r, dtype=np.float64)
    if np.ndim(alpha) == 0:
        arrays, (_, a1s, b, _) = _recurrence_tables(alpha, K)  # per-row factors as floats
        c0, a1, _, scale = (a[:, None] for a in arrays)  # whole-table products
        rn, drn = _powers(N, r)
    else:  # (rows, C, 1) tables, a column per channel, broadcast over the channel's radii
        alpha = np.asarray(alpha, dtype=np.float64)[:, None]
        if np.shape(N) != (len(alpha),) or r.shape[:-1] != (len(alpha),):
            raise ValueError(f"{len(alpha)} alphas and {np.size(N)} orders for radii of shape {r.shape}")
        tables = [_recurrence_tables(a, K)[0] for a in alpha[:, 0].tolist()]
        c0, a1, b, scale = (np.stack([t[i][:n] for t in tables], axis=1)[..., None]
                            for i, n in enumerate((max(K - 2, 0),) * 3 + (K,)))
        a1s = a1
        rn, drn = (np.array(v) for v in zip(*map(_powers, np.asarray(N).tolist(), r)))
    x = r * r
    # rows of P_k(y(r)) and, with deriv, P_k'(y(r)), written in place; ay[k - 2]
    # is the recurrence factor c0 - 2 a1 x of row k
    P = np.empty((K,) + r.shape)
    D = np.empty_like(P) if deriv else None
    tmp = np.empty_like(r)
    P[0] = 1.0
    if deriv:
        D[0] = 0.0
    if K > 1:
        P[1] = (alpha + 1.0) - (alpha + 2.0) * x
        if deriv:
            D[1] = (alpha + 2.0) / 2.0
        ay = (2.0 * a1[: K - 2]) * x
        np.subtract(c0[: K - 2], ay, out=ay)
        for k in range(2, K):
            if deriv:
                np.multiply(ay[k - 2], D[k - 1], out=D[k])
                D[k] -= np.multiply(b[k - 2], D[k - 2], out=tmp)
                D[k] += np.multiply(a1s[k - 2], P[k - 1], out=tmp)
            np.multiply(ay[k - 2], P[k - 1], out=P[k])
            P[k] -= np.multiply(b[k - 2], P[k - 2], out=tmp)
    scale = scale[:K]
    if deriv:
        # d/dr [P(y(r)) r^N] = P'(y) (-4r) r^N + P(y) N r^(N-1)
        D *= -4.0 * r
        D *= rn
        D += P * drn
        D *= scale
    P *= scale
    P *= rn
    return P.reshape(K, r.size), (D.reshape(K, r.size) if deriv else None)


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

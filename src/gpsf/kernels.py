"""The radial recurrence and the exactly rounded phase sum.

The normalized radial polynomials Rbar_k(r) = scale[k] P_k^(alpha,0)(1-2r^2) r^N
come from the Jacobi three-term recurrence.  ``rbar_basis`` and
``rbar_basis_with_deriv`` tabulate them as K-by-m matrices, one row per
degree; every evaluation of the radial functions, at one radius or many,
is a product with such a matrix.  Given alpha and N of C channels and a
row of radii for each, one recurrence pass serves them all, each channel's
block of columns with the bits of its own build.

A narrow build, of at most ``_SOLVE_COLUMNS`` columns, runs the recurrence
of each column as a banded lower-triangular system, all columns in one
LAPACK ``dgttrs`` solve (and a second one for the derivative); a wider one
runs it as a loop over the degrees.  Both do the same floating-point
operations in the same order, so they give the same bits.
"""

import importlib.util
import itertools
import math
import os
import sys
import sysconfig

import numpy as np

__all__ = ["rbar_basis", "rbar_basis_with_deriv", "phase_sum"]

_PHASE_CHUNK = 1 << 16  # terms per chunk handed to math.fsum
_TABLE_ALPHAS = 256  # recurrence tables kept, one per alpha, least recently used dropped first
# Columns (C*m) up to which a build solves for its degrees instead of looping over them.
# One BLAS thread, 2-vCPU Xeon VM, K from 40 to 607: the solve costs about 16 ns per entry
# and the loop about 0.6 us per numpy call, 8 calls a degree with the derivative and 3
# without, so the two break even near 112 columns with the derivative and 80 without; at
# 64 columns the solve takes 0.61-0.69 of the loop's time with it and 0.72-0.94 without.
_SOLVE_COLUMNS = 64
_tables: dict[float, tuple] = {}


def _load_flapack():
    # SciPy's LAPACK extension, loaded from its file: importing it through scipy.linalg also
    # imports SciPy's array-API layer, which took more than half of gpsf's import time.  It is
    # registered under its own name, so gpsf and scipy.linalg share one instance.
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                        "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.isfile(path):
        raise ImportError(f"SciPy's LAPACK extension is missing: {path}", name=name, path=path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgttrs = _flapack.dgttrs


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
    if K < 1 or int(K) != K:
        raise ValueError(f"the basis needs a whole number of degrees K >= 1, got K={K}")
    K = int(K)
    bad = [n for n in np.ravel(N).tolist() if not (n >= 0 and float(n).is_integer())]
    if bad:
        raise ValueError(f"the radial order N must be a nonnegative integer, got N={bad[0]}")
    r = np.ascontiguousarray(r, dtype=np.float64)
    if np.ndim(alpha) == 0:
        arrays, (_, a1s, bs, _) = _recurrence_tables(alpha, K)  # per-row factors as floats
        c0, a1, b = (a[: max(K - 2, 0), None] for a in arrays[:3])  # whole-table products
        scale = arrays[3][:K, None]
        rn, drn = _powers(N, r)
    else:  # (rows, C, 1) tables, a column per channel, broadcast over the channel's radii
        alpha = np.asarray(alpha, dtype=np.float64)[:, None]
        if np.shape(N) != (len(alpha),) or r.shape[:-1] != (len(alpha),):
            raise ValueError(f"{len(alpha)} alphas and {np.size(N)} orders for radii of shape {r.shape}")
        tables = [_recurrence_tables(a, K)[0] for a in alpha[:, 0].tolist()]
        c0, a1, b, scale = (np.stack([t[i][:n] for t in tables], axis=1)[..., None]
                            for i, n in enumerate((max(K - 2, 0),) * 3 + (K,)))
        a1s, bs = a1, b
        rn, drn = (np.array(v) for v in zip(*map(_powers, np.asarray(N).tolist(), r)))
    x = r * r
    P1 = (alpha + 1.0) - (alpha + 2.0) * x
    D1 = (alpha + 2.0) / 2.0
    solved = _solved_rows(P1, D1, c0, a1, b, x, deriv) if K > 2 and r.size <= _SOLVE_COLUMNS else None
    P, D = solved or _row_loop(P1, D1, c0, a1, a1s, bs, x, K, deriv)
    if deriv:
        # d/dr [P(y(r)) r^N] = P'(y) (-4r) r^N + P(y) N r^(N-1)
        D *= -4.0 * r
        D *= rn
        D += P * drn
        D *= scale
        D = np.ascontiguousarray(D.reshape(K, r.size))
    P *= scale
    P *= rn
    return np.ascontiguousarray(P.reshape(K, r.size)), D


def _row_loop(P1, D1, c0, a1, a1s, bs, x, K, deriv):
    # rows of P_k(y(r)) and, with deriv, P_k'(y(r)), written in place a degree at a time:
    # P_k = ay P_{k-1} - b P_{k-2} and P'_k = (a1 P_{k-1} + ay P'_{k-1}) - b P'_{k-2},
    # with ay[k - 2] = c0 - 2 a1 x the factor of row k
    P = np.empty((K,) + x.shape)
    D = np.empty_like(P) if deriv else None
    tmp = np.empty_like(x)
    P[0] = 1.0
    if deriv:
        D[0] = 0.0
    if K > 1:
        P[1] = P1
        if deriv:
            D[1] = D1
        ay = (2.0 * a1) * x
        np.subtract(c0, ay, out=ay)
        for k in range(2, K):
            if deriv:
                np.multiply(a1s[k - 2], P[k - 1], out=D[k])
                D[k] += np.multiply(ay[k - 2], D[k - 1], out=tmp)
                D[k] -= np.multiply(bs[k - 2], D[k - 2], out=tmp)
            np.multiply(ay[k - 2], P[k - 1], out=P[k])
            P[k] -= np.multiply(bs[k - 2], P[k - 2], out=tmp)
    return P, D


def _solved_rows(P1, D1, c0, a1, b, x, deriv):
    # (P, D) with _row_loop's bits, each from one dgttrs solve, or None where a value
    # overflows.  The unknowns are the entries g = j K + k (degree k of column j) stored
    # last first, so that dgttrs's back substitution x_g = (B_g - DU_g x_{g-1}) - DU2_g x_{g-2}
    # (plain Fortran, no fused multiply-add) runs up the degrees of one column after
    # another.  With DU = -ay and DU2 = b from degree 2 on, and zero at degrees 0 and 1 to
    # uncouple the columns, it is the loop's (B + ay x_{k-1}) - b x_{k-2} term for term.
    # The factors are the identity (D = 1, DL = 0, no pivoting), so the L pass that runs
    # first leaves the finite right-hand side as it is.
    K = len(c0) + 2
    n = K * x.size

    def band(row0, row1):
        # a vector in the solve's order and the view of its degrees 2 to K - 1
        vec = np.empty(n)
        rows = _degree_rows(vec, x.shape)
        rows[0], rows[1] = row0, row1
        return vec, rows[2:]

    du, rows = band(0.0, 0.0)  # -ay, with ay formed as the loop forms it
    np.multiply(2.0 * a1, x, out=rows)
    np.subtract(c0, rows, out=rows)
    np.negative(rows, out=rows)
    du2, rows = band(0.0, 0.0)
    rows[...] = b
    dl, d, ipiv = np.zeros(n - 1), np.ones(n), np.arange(1, n + 1, dtype=np.int32)

    def solve(rhs):
        sol, info = dgttrs(dl, d, du[:-1], du2[:-2], ipiv, rhs, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"dgttrs refused its arguments: info={info}")
        # an overflow would spread to the next column through the zero couplings (0 * inf)
        return _degree_rows(sol, x.shape) if np.isfinite(sol).all() else None

    rhs, rows = band(1.0, P1)
    rows[...] = 0.0
    P = solve(rhs)
    if P is None or not deriv:
        return None if P is None else (P, None)
    rhs, rows = band(0.0, D1)
    np.multiply(a1, P[1:-1], out=rows)
    D = solve(rhs)
    return None if D is None else (P, D)


def _degree_rows(vec, shape):
    # the (K,) + shape view of a vector whose entry j K + k, counted from the end, is
    # degree k at column j
    return vec[::-1].reshape(shape + (-1,)).transpose((len(shape),) + tuple(range(len(shape))))


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

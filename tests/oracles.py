"""Independent reference implementations used only for testing.

Extended precision lives here and nowhere in the library: explicit-series
and recurrence evaluations in mpmath, brute-force quadrature, and the
analytic Bessel image of the radial kernel.
"""

import functools

import mpmath as mp
import numpy as np
import scipy.integrate
import scipy.special

from gpsf.prolate import eval_phi

mp.mp.dps = 40


def zernike_explicit_mp(p, N, n, x):
    """Zernike radial polynomial by its explicit binomial sum."""
    x = mp.mpf(x)
    a = N + mp.mpf(p) / 2
    total = mp.mpf(0)
    for m in range(n + 1):
        total += (
            (-1) ** m
            * mp.binomial(n + a, m)
            * mp.binomial(n, m)
            * x ** (2 * (n - m))
            * (1 - x * x) ** m
        )
    return x**N * total


def _legendre_and_deriv(n, x):
    """(P_n(x), P_n'(x)) by the Legendre three-term recurrence."""
    p0, p1 = x ** 0, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


@functools.lru_cache(maxsize=None)
def gauss_legendre_01(n):
    """Nodes/weights of n-point Gauss-Legendre on (0, 1), exact to round-off.

    ``leggauss`` takes its weights from a derivative at the unpolished
    eigenvalue roots and renormalises them to sum to 1; at n=400 that leaves
    absolute weight errors up to 1.3e-14 near both ends and every monomial
    moment off by about the same. Here its nodes are only a starting guess:
    three Newton steps on the recurrence polish them, and the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the polished nodes, not renormalised
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013). Against a 40-digit
    rule at n=400 the nodes agree to half an ulp, the weights to 5e-17 and the
    moments of degree < 2n to 2.2e-16.

    The rule is cached per n, so the arrays are returned read-only.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    for _ in range(3):
        pn, dp = _legendre_and_deriv(n, x)
        x = x - pn / dp
    _, dp = _legendre_and_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_01_mp(n):
    """The same rule with nodes and weights polished in 40-digit arithmetic."""
    x0, _ = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    for x in map(mp.mpf, x0):
        for _ in range(6):
            pn, dp = _legendre_and_deriv(n, x)
            x -= pn / dp
        _, dp = _legendre_and_deriv(n, x)
        nodes.append((x + 1) / 2)
        weights.append(1 / ((1 - x * x) * dp * dp))
    return nodes, weights


def weighted_inner(f, g, p, n=400):
    """Brute-force integral of f(x) g(x) x^(p+1) on (0, 1)."""
    x, w = gauss_legendre_01(n)
    return float(np.sum(w * f(x) * g(x) * x ** (p + 1.0)))


def h_apply_quad(mode, r):
    """Radial integral-operator image at r by adaptive quadrature (float64)."""
    import warnings

    p, c, N = mode.channel.p, mode.channel.c, mode.channel.N
    nu = N + p / 2.0

    def integrand(rho):
        kern = scipy.special.jv(nu, c * r * rho) / (c * r * rho) ** (p / 2.0)
        return kern * eval_phi(mode, rho) * rho ** (p + 1.0)

    with warnings.catch_warnings():
        # tolerances are intentionally at the round-off floor
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=300)
    return val


def h_apply_rule(mode, rr):
    """Radial integral-operator images at the radii ``rr`` by a fixed 200-point rule (float64).

    One table of the mode at the nodes of ``gauss_legendre_01(200)`` times
    the matrix of the kernel J_nu(c r rho) / (c r rho)^(p/2) over radii and
    nodes.  The integrand is entire in rho, so at band limits of the order
    of 20 the rule's error lies far below the round-off of its sum; that
    round-off, not the rule, limits small images, as it does the adaptive
    ``h_apply_quad``.
    """
    p, c, N = mode.channel.p, mode.channel.c, mode.channel.N
    rho, w = gauss_legendre_01(200)
    arg = c * np.outer(np.asarray(rr, dtype=float), rho)
    kern = scipy.special.jv(N + p / 2.0, arg) / arg ** (p / 2.0)
    return kern @ (w * eval_phi(mode, rho) * rho ** (p + 1.0))


def h_apply_bessel_mp(mode, r):
    """Radial integral-operator image at r via the analytic kernel image.

    Each basis polynomial maps to a single Bessel function:
    image of the k-th orthonormal basis element at r equals
    sqrt(2(2k+alpha+1)) (-1)^k J_(alpha+2k+1)(c r) / (c r)^(p/2+1),
    so the operator image of the whole expansion is an exact Bessel sum,
    evaluated here in extended precision.
    """
    p, c, N = mode.channel.p, mode.channel.c, mode.channel.N
    a = N + mp.mpf(p) / 2
    cr = mp.mpf(c) * mp.mpf(r)
    total = mp.mpf(0)
    for k, ak in enumerate(mode.coeffs):
        total += (
            mp.mpf(float(ak))
            * mp.sqrt(2 * (2 * k + a + 1))
            * (-1) ** k
            * mp.besselj(a + 2 * k + 1, cr)
        )
    return total / cr ** (mp.mpf(p) / 2 + 1)


def jacobi_mp(K, a, x, b=0):
    """P_0^(a,b)(x), ..., P_{K-1}^(a,b)(x) by the three-term recurrence (DLMF 18.9.1-2).

    At 40 digits, in O(K) operations where K calls of mpmath's hypergeometric
    ``jacobi`` take O(K^2) and more with the precision they add against
    cancellation; ``test_oracles`` checks the two against each other.
    """
    vals = [mp.mpf(1), (a + 1) + (a + b + 2) * (x - 1) / 2][:K]
    for n in range(1, K - 1):
        t = 2 * n + a + b
        vals.append(((t + 1) * (t * (t + 2) * x + a * a - b * b) * vals[n]
                     - 2 * (n + a) * (n + b) * (t + 2) * vals[n - 1]) / (2 * (n + 1) * (n + a + b + 1) * t))
    return vals


def rbar_basis_mp(K, p, N, r):
    """(B, dB/dr) of the normalized radial polynomials at one radius, as K-vectors of floats.

    B_k = (-1)^k sqrt(2 (2k + a + 1)) P_k^(a,0)(1 - 2r^2) r^N with a = N + p/2, as
    ``kernels.rbar_basis`` scales them, and its derivative in r from
    d/dy P_k^(a,0)(y) = (k + a + 1)/2 P_{k-1}^(a+1,1)(y) (DLMF 18.9.15), each
    rounded once from 40 digits.
    """
    a, r = N + mp.mpf(p) / 2, mp.mpf(r)
    y = 1 - 2 * r * r
    rn, drn = r**N, (N * r ** (N - 1) if N else 0)  # no 0^-1 at r = 0
    P, Q = jacobi_mp(K, a, y), [mp.mpf(0)] + jacobi_mp(K - 1, a + 1, y, b=1)
    B, D = [], []
    for k in range(K):
        scale = (-1) ** k * mp.sqrt(2 * (2 * k + a + 1))
        dP = (k + a + 1) / 2 * Q[k]
        B.append(float(scale * P[k] * rn))
        D.append(float(scale * (dP * -4 * r * rn + P[k] * drn)))
    return np.array(B), np.array(D)


def phi_mp(mode, r):
    """Extended-precision evaluation of the mode from its coefficients."""
    p, N = mode.channel.p, mode.channel.N
    a = N + mp.mpf(p) / 2
    r = mp.mpf(r)
    total = mp.mpf(0)
    for k, (ak, pk) in enumerate(zip(mode.coeffs, jacobi_mp(len(mode.coeffs), a, 1 - 2 * r * r))):
        total += mp.mpf(float(ak)) * mp.sqrt(2 * (2 * k + a + 1)) * (-1) ** k * pk
    return total * r**N


def pruefer_beta(mode, r):
    """Zeroth-order coefficient b(r) of the weighted-equation form, at a radius or an array.

    b(r) = (1/4 - (N+p/2)^2) / (r^2 (1-r^2)) + (chi - c^2 r^2) / (1-r^2).
    Positive b marks the oscillatory region.
    """
    ch = mode.channel
    r2 = r * r
    omr = 1.0 - r2
    return (0.25 - ch.alpha * ch.alpha) / (r2 * omr) + (mode.chi - ch.c * ch.c * r2) / omr


def tridiag_eigenvalue_mp(d, e, k):
    """The k-th lowest eigenvalue (k from 0) of a symmetric tridiagonal matrix.

    Sturm bisection in 40-digit arithmetic on the exact float entries of
    diagonal ``d`` and off-diagonal ``e``: the number of negative pivots of
    the LDL^T factorization of T - x counts the eigenvalues below x.
    """
    d = [mp.mpf(float(v)) for v in d]
    e = [mp.mpf(float(v)) for v in e]

    def below(x):
        count, q = 0, d[0] - x
        for i in range(1, len(d)):
            count += q < 0
            q = d[i] - x - e[i - 1] ** 2 / (q if q != 0 else mp.mpf(10) ** -60)
        return count + (q < 0)

    # Gershgorin bounds
    radius = [abs(a) + abs(b) for a, b in zip([0] + e, e + [0])]
    lo = min(a - r for a, r in zip(d, radius))
    hi = max(a + r for a, r in zip(d, radius))
    while hi - lo > abs(hi) * mp.mpf(10) ** -38:
        mid = (lo + hi) / 2
        if below(mid) > k:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2

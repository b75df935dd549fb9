"""Independent reference implementations used only for testing.

Extended precision lives here and nowhere in the library: explicit-series
evaluations in mpmath, brute-force quadrature, and the analytic Bessel
image of the radial kernel.
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


def phi_mp(mode, r):
    """Extended-precision evaluation of the mode from its coefficients."""
    p, N = mode.channel.p, mode.channel.N
    a = N + mp.mpf(p) / 2
    r = mp.mpf(r)
    total = mp.mpf(0)
    for k, ak in enumerate(mode.coeffs):
        total += (
            mp.mpf(float(ak))
            * mp.sqrt(2 * (2 * k + a + 1))
            * (-1) ** k
            * mp.jacobi(k, a, 0, 1 - 2 * r * r)
        )
    return total * r**N


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

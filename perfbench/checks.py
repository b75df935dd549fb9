"""Correctness checks for the benchmark's outputs.

Every check compares an output with a value computed apart from the
program (mpmath closed forms, ``scipy.special.pro_cv``) or with a property
the method must have. A check returns ``(ok, err)``: ``err`` is the error it
measured, or ``None`` for a pure property check, and feeds ``digits_min``.
The self-tests in ``workloads`` feed each check deliberately wrong outputs.
"""

import math

import mpmath as mp
import numpy as np
import scipy.special as sps

mp.mp.dps = 30

EPS = np.finfo(float).eps

# Tolerances sit well above what the program reaches today (quoted beside
# each) and well below the size of the faults the self-test injects.
INTEGRAL_TOL = 1e-12  # ball integrals reach 5.3e-15 of the ball volume
SPECTRAL_SUM_TOL = 1e-11  # |ratio - 1| reaches 1.5e-14 for c <= 82
CHI_TOL = 1e-12  # chi agrees with pro_cv to 5.1e-14 relative
COEFF_TOL = 1e-11  # eigen-relation residuals reach 2.3e-13 of the |lambda| bound
SYNTH_TOL = 1e-10  # synthesis reaches 7.2e-13 at |y| <= 0.7
MONOTONE_ULPS = 16.0  # |lambda| rises from one mode to the next by 5 ulp or less
BOUND_SLACK = 1e-12  # in the flat part |lambda| passes its bound by up to 2.3e-14 relative


def ball_volume(p):
    return float(mp.pi ** (mp.mpf(p) / 2 + 1) / mp.gamma(mp.mpf(p) / 2 + 2))


def ball_integral_reference(p, c, x):
    """Integral of e^(ic<x,t>) over the unit ball in R^(p+2), by mpmath.

    (2 pi / c)^(p/2+1) J_(p/2+1)(c|x|) / |x|^(p/2+1); the ball volume at x = 0.
    """
    nu = mp.mpf(p) / 2 + 1
    r = mp.sqrt(mp.fsum(mp.mpf(float(v)) ** 2 for v in x))
    if r == 0:
        return ball_volume(p)
    c = mp.mpf(float(c))
    return float((2 * mp.pi / c) ** nu * mp.besselj(nu, c * r) / r**nu)


def spectral_sum_reference(p, c):
    """Closed form c^(p+2) / (2^(p+2) Gamma(p/2+2)^2) of the sum of all mu."""
    c = mp.mpf(float(c))
    return float(c ** (p + 2) / (2 ** (p + 2) * mp.gamma(mp.mpf(p) / 2 + 2) ** 2))


def lambda_bound(p, c):
    """|lambda| < (2 pi / c)^((p+2)/2), which is mu < 1."""
    return (2.0 * math.pi / c) ** ((p + 2) / 2.0)


def check_integral(p, c, x, value):
    """Ball integral against its closed form, as a share of the ball volume.

    The volume is the integral's largest value (at x = 0). Dividing by the
    closed form itself would blow up wherever c|x| sits near a Bessel zero.
    """
    ref = ball_integral_reference(p, c, x)
    err = abs(complex(value) - ref) / ball_volume(p)
    return err <= INTEGRAL_TOL, err


def check_spectral_sum(p, c, partial_sum):
    err = abs(partial_sum / spectral_sum_reference(p, c) - 1.0)
    return err <= SPECTRAL_SUM_TOL, err


def check_chi_interval(c, N, ns, chis):
    """p = -1 eigenvalues chi_{N,n} against scipy's prolate values pro_cv(0, 2n+N, c)."""
    err = 0.0
    for n, chi in zip(ns, chis):
        ref = sps.pro_cv(0, 2 * n + N, c)
        err = max(err, abs(chi - ref) / abs(ref))
    return err <= CHI_TOL, err


def check_lambda_sequence(p, c, abs_lams, mus=None):
    """|lambda| not rising with n by more than a few ulp, and within its bound; 0 <= mu < 1.

    In the flat part of the spectrum |lambda| sits at the bound (mu = 1 to
    round-off), so the bound holds only to the accuracy of |lambda|.
    ``mus``, when given, is the program's own mu column, which must lie in
    [0, 1).
    """
    a = np.asarray(abs_lams, dtype=float)
    ok = (
        len(a) > 0
        and bool(np.all(np.isfinite(a) & (a >= 0.0)))
        and bool(np.all(a <= lambda_bound(p, c) * (1.0 + BOUND_SLACK)))
        and bool(np.all(a[1:] <= a[:-1] * (1.0 + MONOTONE_ULPS * EPS)))
    )
    if mus is not None:
        mus = np.asarray(mus, dtype=float)
        ok = ok and bool(np.all((mus >= 0.0) & (mus < 1.0)))
    return ok, None


def check_coefficients(p, c, coeffs, reference):
    """Recovered coefficients against the eigen-relation lambda Phi(|x|) S(x^).

    ``coeffs`` and ``reference`` map (N, ell, n) to complex numbers. The
    residual is measured as a share of the bound on |lambda|.
    """
    scale = lambda_bound(p, c)
    err = max(abs(coeffs[k] - reference[k]) for k in reference) / scale
    return err <= COEFF_TOL, err


def check_synthesis(c, x, y, value):
    """Synthesized expansion of e^(ic<x,.>) against the function itself at y."""
    exact = complex(mp.expj(mp.mpf(float(c)) * mp.fsum(mp.mpf(float(a)) * mp.mpf(float(b)) for a, b in zip(x, y))))
    err = abs(complex(value) - exact)
    return err <= SYNTH_TOL, err


def digits(err):
    """-log10 of an error, with an exact zero read as half an ulp."""
    return -math.log10(max(err, EPS / 2.0))

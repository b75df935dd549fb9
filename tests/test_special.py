"""Radial special functions, read off the rows of the one library recurrence.

The Zernike radial polynomials, their weighted (orthonormal) form and the
Jacobi polynomials P_n^(alpha,0) with their derivatives are all taken from
kernels.rbar_basis and kernels.rbar_basis_with_deriv, and checked against
closed forms, scipy and extended-precision oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi

from gpsf import kernels

import oracles


def _zernike_rows(p, N, K, r):
    # rows of rbar_basis over the orthonormal scale sqrt(2(2k+alpha+1)): the
    # Zernike radial polynomials R_{N,k}(r) = (-1)^k P_k^(alpha,0)(1-2r^2) r^N, R(1) = 1
    al = N + p / 2.0
    scale = np.sqrt(2.0 * (2.0 * np.arange(K) + al + 1.0))
    return kernels.rbar_basis(al, N, K, np.atleast_1d(np.asarray(r, dtype=float))) / scale[:, None]


def _jacobi_rows(alpha, K, y, deriv=False):
    # P_k^(alpha,0), or with deriv its d/dy, for k < K from the N = 0 basis at r = sqrt((1-y)/2),
    # using dB/dr = scale P'(1-2r^2) (-4r); also returns 1 - 2r^2, the argument the basis used
    r = np.sqrt((1.0 - np.atleast_1d(np.asarray(y, dtype=float))) / 2.0)
    k = np.arange(K)
    scale = (np.sqrt(2.0 * (2.0 * k + alpha + 1.0)) * (-1.0) ** k)[:, None]
    rows = (kernels.rbar_basis_with_deriv(alpha, 0, K, r)[1] / (scale * (-4.0 * r)) if deriv
            else kernels.rbar_basis(alpha, 0, K, r) / scale)
    return rows, 1.0 - 2.0 * r * r


class TestZernikeRadial:
    """The basis rows against closed forms and an explicit-sum oracle."""

    @pytest.mark.parametrize("p,N,n", [(0, 0, 4), (0, 3, 2), (1, 2, 5), (-1, 1, 3), (2, 5, 1)])
    def test_value_at_one(self, p, N, n):
        assert _zernike_rows(p, N, n + 1, 1.0)[n, 0] == pytest.approx(1.0, rel=1e-13)

    def test_interval_case_is_legendre(self):
        # p=-1, N=0: the radial polynomial of mode n is the Legendre
        # polynomial of degree 2n
        got = _zernike_rows(-1, 0, 4, 0.6)[3, 0]
        assert got == pytest.approx(0.172096, rel=1e-14)

    def test_pure_power_mode(self):
        assert _zernike_rows(0, 4, 1, 0.5)[0, 0] == pytest.approx(0.0625, abs=1e-16)

    def test_against_explicit_sum(self):
        rng = np.random.default_rng(7)
        for p in (-1, 0, 1, 2):
            for N, n in ((0, 3), (1, 7), (4, 9), (2, 13)):
                if p == -1 and N > 1:
                    continue
                if 2 * n + N > 30:
                    continue
                x = float(rng.uniform(0.05, 0.98))
                ours = _zernike_rows(p, N, n + 1, x)[n, 0]
                ref = float(oracles.zernike_explicit_mp(p, N, n, x))
                assert ours == pytest.approx(ref, rel=1e-12)

    def test_orthogonality(self):
        # with the orthonormal scaling, the Gram matrix over weight
        # x^(p+1) is the identity
        x, w = oracles.gauss_legendre_01(400)
        # every Gram entry has degree <= 83, integrated exactly by 400 points,
        # so the residual measures only round-off in the basis
        for p in (-1, 0, 1, 2):
            for N in (0, 1, 4, 10):
                if p == -1 and N > 1:
                    continue
                B = kernels.rbar_basis(N + p / 2.0, N, 16, x)
                gram = (B * (w * x ** (p + 1.0))) @ B.T
                assert np.max(np.abs(gram - np.eye(16))) < 1e-12


class TestTbar:
    """r^((p+1)/2) times a basis row: the weighted radial function."""

    def test_unit_norm(self):
        # r^((p+1)/2) times a row is orthonormal with unit weight
        x, w = oracles.gauss_legendre_01(200)
        row = kernels.rbar_basis(3.0, 3, 3, x)[2] * x ** 0.5
        assert float(np.sum(w * row**2)) == pytest.approx(1.0, abs=1e-13)

    def test_two_routes_agree(self):
        # r^((p+1)/2) times a row against scipy's Jacobi polynomial times the closed-form prefactor
        rng = np.random.default_rng(3)
        for _ in range(20):
            N = int(rng.integers(0, 6))
            n = int(rng.integers(0, 10))
            p = int(rng.integers(0, 3))
            r = float(rng.uniform(0.02, 0.99))
            al = N + p / 2.0
            row = kernels.rbar_basis(al, N, n + 1, np.array([r]))[n, 0] * r ** ((p + 1) / 2.0)
            ref = ((-1.0) ** n * math.sqrt(2.0 * (2.0 * n + al + 1.0)) * r ** (N + (p + 1) / 2.0)
                   * eval_jacobi(n, al, 0.0, 1.0 - 2.0 * r * r))
            assert row == pytest.approx(ref, rel=1e-13)

    def test_value_at_one(self):
        # the scale sqrt(2(2n+N+p/2+1)) at r=1, for (p, N, n) = (1, 2, 5)
        got = kernels.rbar_basis(2.5, 2, 6, np.array([1.0]))[5, 0]
        assert got == pytest.approx(math.sqrt(27.0), rel=1e-14)


class TestJacobi:
    """P_n^(alpha,0) read off the N = 0 basis rows."""

    def test_degree_zero_is_one(self):
        assert _jacobi_rows(2.0, 1, 0.37)[0][0, 0] == 1.0

    def test_degree_one_value(self):
        # (alpha + (alpha+2) y) / 2 at alpha=2, y=0.5
        assert _jacobi_rows(2.0, 2, 0.5)[0][1, 0] == pytest.approx(2.0, abs=0.0)

    def test_against_series_oracle(self):
        # frozen from the 40-digit evaluation
        expected = 0.28012660762596130371
        got = _jacobi_rows(1.5, 8, 0.3)[0][7, 0]
        assert got == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(
        al=st.floats(-0.9, 8.0),
        n=st.integers(2, 25),
        x=st.floats(-1.0, 1.0),
    )
    def test_three_term_identity(self, al, n, x):
        # a1 P_{n+1} = (a2 + a3 y) P_n - a4 P_{n-1}, at the argument the basis used
        P, y = _jacobi_rows(al, n + 2, x)
        y = float(y[0])
        a1 = 2.0 * (n + 1.0) * (n + al + 1.0) * (2.0 * n + al)
        a2 = (2.0 * n + al + 1.0) * al * al
        a3 = (2.0 * n + al) * (2.0 * n + al + 1.0) * (2.0 * n + al + 2.0)
        a4 = 2.0 * (n + al) * n * (2.0 * n + al + 2.0)
        lhs = a1 * P[n + 1, 0]
        rhs = (a2 + a3 * y) * P[n, 0] - a4 * P[n - 1, 0]
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestJacobiDeriv:
    """dB/dr of rbar_basis_with_deriv: closed forms and finite differences of P_n^(alpha,0)."""

    def test_degree_zero(self):
        # the constant row has zero derivative
        assert _jacobi_rows(3.0, 1, 0.7, deriv=True)[0][0, 0] == 0.0

    def test_degree_one(self):
        # dB_1/dr = -sqrt(2(alpha+3)) (alpha+2)/2 (-4r) at alpha=3, r=0.5
        _, D = kernels.rbar_basis_with_deriv(3.0, 0, 2, np.array([0.5]))
        assert D[1, 0] == -math.sqrt(12.0) * (2.5 * (-4.0 * 0.5))

    def test_finite_difference(self):
        h = 1e-6
        P = _jacobi_rows(1.0, 6, [0.2 - h, 0.2 + h])[0][5]
        fd = (P[1] - P[0]) / (2.0 * h)
        assert _jacobi_rows(1.0, 6, 0.2, deriv=True)[0][5, 0] == pytest.approx(fd, rel=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(al=st.floats(-0.5, 6.0), n=st.integers(1, 15), x=st.floats(-0.8, 0.8))
    def test_finite_difference_property(self, al, n, x):
        h = 1e-6
        P = _jacobi_rows(al, n + 1, [x - h, x + h])[0][n]
        fd = (P[1] - P[0]) / (2.0 * h)
        d = _jacobi_rows(al, n + 1, x, deriv=True)[0][n, 0]
        if abs(d) > 1e-3:  # away from extrema
            assert d == pytest.approx(fd, rel=1e-7)

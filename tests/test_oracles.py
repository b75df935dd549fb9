import numpy as np

import oracles


class TestGaussLegendreOracle:
    # the reference rule behind every brute-force integral in the suite;
    # leggauss misses both bounds (moments 1.3e-14, weights 1.1e-15)
    def test_moments_exact_to_round_off(self):
        x, w = oracles.gauss_legendre_01(400)
        k = np.arange(800)
        moments = (x ** k[:, None]) @ w
        assert np.max(np.abs(moments - 1.0 / (k + 1))) <= 1e-15

    def test_against_extended_precision(self):
        x, w = oracles.gauss_legendre_01(64)
        xr, wr = oracles.gauss_legendre_01_mp(64)
        assert np.max(np.abs(x - np.array(xr, dtype=float))) <= 2e-16
        assert np.max(np.abs(w - np.array(wr, dtype=float))) <= 2e-16


class TestJacobiRecurrence:
    # the recurrence behind phi_mp against mpmath's hypergeometric jacobi
    def test_against_hypergeometric(self):
        import mpmath as mp

        for a in (mp.mpf(-0.5), mp.mpf(0), mp.mpf(2.5), mp.mpf(200.5)):
            for x in (mp.mpf(-1), mp.mpf("-0.37"), mp.mpf("0.9999"), mp.mpf(1)):
                vals = oracles.jacobi_mp(61, a, x)
                for k in (0, 1, 2, 7, 60):
                    ref = mp.jacobi(k, a, 0, x)
                    assert abs(vals[k] - ref) <= mp.mpf(10) ** -30 * max(1, abs(ref)), (a, x, k)

    def test_beta_one_against_hypergeometric(self):
        # the (a + 1, 1) family behind the derivative in rbar_basis_mp
        import mpmath as mp

        for a in (mp.mpf(0.5), mp.mpf(1), mp.mpf(6.5)):
            for x in (mp.mpf(-1), mp.mpf("0.41"), mp.mpf(1)):
                vals = oracles.jacobi_mp(61, a, x, b=1)
                for k in (0, 1, 2, 7, 60):
                    ref = mp.jacobi(k, a, 1, x)
                    assert abs(vals[k] - ref) <= mp.mpf(10) ** -30 * max(1, abs(ref)), (a, x, k)


class TestBasisOracle:
    # rbar_basis_mp's derivative against a central difference of its values at 40 digits
    def test_derivative_against_difference(self):
        import mpmath as mp

        for p, N in ((-1, 1), (0, 0), (1, 5)):
            for r in ("0.13", "0.5", "0.97"):
                _, D = oracles.rbar_basis_mp(30, p, N, r)
                a = N + mp.mpf(p) / 2
                for k in (0, 1, 7, 29):
                    def value(t, k=k):
                        P = oracles.jacobi_mp(k + 1, a, 1 - 2 * t * t)[k]
                        return (-1) ** k * mp.sqrt(2 * (2 * k + a + 1)) * P * t**N
                    ref = mp.diff(value, mp.mpf(r))
                    assert abs(D[k] - float(ref)) <= 1e-15 * max(1.0, abs(float(ref))), (p, N, r, k)

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

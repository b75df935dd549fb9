import math

import numpy as np
import pytest

import gpsf
from gpsf.ballquad import _gauss_legendre, surface_area, surface_harmonic
from gpsf.prolate import ProlateChannel

from golden import DISK_INTEGRAL_EXACT
from oracles import gauss_legendre_01_mp


class TestAngularRule:
    # m angles integrate surface harmonics of degree up to m - 1
    def test_circle_total_weight(self):
        rule = gpsf.angular_rule_from_count(0, 21)
        assert np.sum(rule.weights) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_circle_discrete_orthogonality(self):
        rule = gpsf.angular_rule_from_count(0, 21)
        th = np.arctan2(rule.points[:, 1], rule.points[:, 0])
        for N in range(1, 21):
            assert abs(np.sum(rule.weights * np.cos(N * th))) < 1e-12
            assert abs(np.sum(rule.weights * np.sin(N * th))) < 1e-12

    def test_sphere_total_weight(self):
        rule = gpsf.angular_rule_from_count(1, 11)
        assert np.sum(rule.weights) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_sphere_polynomial_moments(self):
        # moments of the last coordinate: 4 pi / (k+1) for even k, 0 odd
        rule = gpsf.angular_rule_from_count(1, 11)
        z = rule.points[:, 2]
        for k in range(11):
            got = float(np.sum(rule.weights * z**k))
            expect = 4.0 * math.pi / (k + 1.0) if k % 2 == 0 else 0.0
            assert got == pytest.approx(expect, abs=1e-14 * 4.0 * math.pi)

    @pytest.mark.parametrize("p", [0, 1])
    def test_harmonics_integrate_to_zero(self, p):
        K2 = 8
        rule = gpsf.angular_rule_from_count(p, K2 + 1)
        for N in range(1, K2 + 1):
            for ell in range(1, gpsf.harmonic_count(p, N) + 1):
                vals = surface_harmonic(p, N, ell, rule.points)
                assert abs(np.sum(rule.weights * vals)) < 1e-12

    @pytest.mark.parametrize("p", [0, 1])
    def test_harmonics_orthonormal_under_rule(self, p):
        rule = gpsf.angular_rule_from_count(p, 11)
        basis = []
        for N in range(0, 5):
            for ell in range(1, gpsf.harmonic_count(p, N) + 1):
                basis.append(surface_harmonic(p, N, ell, rule.points))
        B = np.vstack(basis)
        gram = (B * rule.weights) @ B.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12

    @pytest.mark.parametrize("p", [-1, 0, 1])
    def test_harmonic_table_matches_per_index_formula(self, p):
        # each row of surface_harmonics equals, bit for bit, the harmonic
        # written out per (N, ell): cos/sin on the circle, and on the
        # sphere the real or imaginary part of its own sph_harm_y call
        from scipy.special import sph_harm_y

        pts = gpsf.angular_rule_from_count(p, 14).points
        theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0)) if p == 1 else None
        az = np.arctan2(pts[:, 1], pts[:, 0]) if p >= 0 else None
        for N in range(2 if p == -1 else 12):
            table = gpsf.surface_harmonics(p, N, pts)
            assert table.shape == (gpsf.harmonic_count(p, N), len(pts))
            for ell in range(1, len(table) + 1):
                if p == -1:
                    ref = (np.ones(len(pts)) if N == 0 else np.sign(pts[:, 0])) / math.sqrt(2.0)
                elif p == 0 and N == 0:
                    ref = np.full(len(pts), 1.0 / math.sqrt(2.0 * math.pi))
                elif p == 0:
                    ref = (np.cos if ell == 1 else np.sin)(N * az) / math.sqrt(math.pi)
                else:
                    m = ell // 2
                    y = sph_harm_y(N, m, theta, az)
                    part = np.real(y) if ell % 2 == 0 or ell == 1 else np.imag(y)
                    ref = part if m == 0 else math.sqrt(2.0) * (-1.0) ** m * part
                assert np.array_equal(table[ell - 1], ref), (N, ell)
                assert np.array_equal(surface_harmonic(p, N, ell, pts), ref)

    def test_interval_endpoints(self):
        rule = gpsf.angular_rule_from_count(-1, 4)
        assert np.array_equal(rule.weights, [1.0, 1.0])
        assert np.array_equal(rule.points[:, 0], [-1.0, 1.0])
        assert np.sum(rule.weights) == surface_area(-1)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            gpsf.angular_rule_from_count(2, 5)


class TestPolarGaussLegendre:
    @pytest.mark.parametrize("q", [25, 150, 300])
    def test_weights_against_40_digit_rule(self, q):
        # the polar factor of the p=1 rule against the 40-digit rule mapped to
        # [-1, 1]; leggauss weights miss this bound (9.7e-16 at q=25, 5.2e-15 at q=300)
        ref_nodes, ref_weights = gauss_legendre_01_mp(q)
        m = 2 * q - 1
        rule = gpsf.angular_rule_from_count(1, m)
        u, w = _gauss_legendre(q)
        assert len(w) == q and rule.count == q * m
        # the rule's polar cosines and ring weights are this factor's nodes and weights
        assert np.array_equal(rule.points[::m, 2], u)
        assert np.array_equal(rule.weights[::m], w * 2.0 * math.pi / m)
        w_ref = np.array([float(2 * v) for v in ref_weights])
        u_ref = np.array([float(2 * x - 1) for x in ref_nodes])
        assert np.max(np.abs(w - w_ref)) <= 4e-16
        assert np.max(np.abs(u - u_ref)) <= 2.3e-16


class TestTensorRule:
    def test_node_count(self):
        radial = gpsf.chebyshev_rule(ProlateChannel(0, 20.0, 0), 14)
        rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(0, 50))
        assert rule.count == 700
        assert rule.nodes().shape == (700, 2)

    def test_constant_integrates_to_volume(self):
        for p, count in ((0, 40), (1, 30)):
            radial = gpsf.gaussian_rule(ProlateChannel(p, 20.0, 0), 10)
            rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(p, count))
            total = float(np.sum(rule.weights()))
            assert total == pytest.approx(gpsf.ball_volume(p), rel=1e-12)

    def test_dimension_mismatch(self):
        radial = gpsf.chebyshev_rule(ProlateChannel(0, 20.0, 0), 6)
        with pytest.raises(ValueError):
            gpsf.BallRule(radial, gpsf.angular_rule_from_count(1, 10))


class TestIntegrateExponential:
    def test_disk_reference_value(self):
        radial = gpsf.chebyshev_rule(ProlateChannel(0, 20.0, 0), 14)
        rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(0, 50))
        val = gpsf.integrate_exponential(rule, [0.9, 0.2], 20.0)
        exact = DISK_INTEGRAL_EXACT[20.0]
        assert abs(val.real - exact) / abs(exact) <= 1e-13
        assert abs(val.imag) < 1e-14

    def test_ball_closed_form(self):
        # p=1 reference: (2 pi / c)^(3/2) J_(3/2)(c|x|) / |x|^(3/2)
        import scipy.special as sps

        c = 20.0
        x = np.array([0.4, 0.1, 0.35])
        nx = float(np.linalg.norm(x))
        exact = (2.0 * math.pi / c) ** 1.5 * sps.jv(1.5, c * nx) / nx**1.5
        radial = gpsf.gaussian_rule(ProlateChannel(1, c, 0), 12)
        rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(1, 40))
        val = gpsf.integrate_exponential(rule, x, c)
        assert val.real == pytest.approx(exact, rel=1e-12)
        assert abs(val.imag) < 1e-15

    def test_interval_closed_form(self):
        # p=-1 reference: 2 sin(c x) / (c x)
        c = 20.0
        x = 0.77
        exact = 2.0 * math.sin(c * x) / (c * x)
        radial = gpsf.gaussian_rule(ProlateChannel(-1, c, 0), 12)
        rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(-1, 2))
        val = gpsf.integrate_exponential(rule, [x], c)
        assert val.real == pytest.approx(exact, rel=1e-12)

    def test_rotation_invariance(self):
        radial = gpsf.chebyshev_rule(ProlateChannel(0, 20.0, 0), 14)
        rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(0, 50))
        x = np.array([0.9, 0.2])
        a = gpsf.integrate_exponential(rule, x, 20.0)
        for ang in (0.3, 1.1, 2.0):
            R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
            b = gpsf.integrate_exponential(rule, R @ x, 20.0)
            assert abs(b - a) <= 1e-13 * abs(a)

    def test_angular_plateau_pattern(self):
        # error vs angular count: far above round-off at 30 nodes, at the
        # plateau by 50
        radial = gpsf.chebyshev_rule(ProlateChannel(0, 20.0, 0), 14)
        exact = DISK_INTEGRAL_EXACT[20.0]
        errs = {}
        for m in (30, 50):
            rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(0, m))
            val = gpsf.integrate_exponential(rule, [0.9, 0.2], 20.0)
            errs[m] = abs(val.real - exact) / abs(exact)
        assert errs[30] > 1e-6
        assert errs[50] < 1e-12

    def test_band_limited_transfer(self, channels):
        # a band-limited function built from eigenfunctions integrates to
        # its exact value at the accuracy observed on the pure exponential
        c = 20.0
        rng = np.random.default_rng(2)
        terms = [(0, 1, 0), (0, 1, 2), (1, 1, 1), (2, 2, 1), (3, 1, 0)]
        coeffs = rng.normal(size=len(terms))
        chain = {N: gpsf.beta_chain(ProlateChannel(0, c, N), 3) for N in range(4)}
        radial = gpsf.chebyshev_rule(ProlateChannel(0, c, 0), 14)
        rule = gpsf.BallRule(radial, gpsf.angular_rule_from_count(0, 50))
        pts = rule.nodes()
        rr = np.linalg.norm(pts, axis=1)
        f = np.zeros(rule.count, dtype=complex)
        exact = 0.0 + 0.0j
        sigma_mass = 0.0
        for (N, ell, n), sc in zip(terms, coeffs):
            lam = chain[N][n].lam
            phi = gpsf.eval_phi(channels(0, c, N, n)[n], rr)
            S = surface_harmonic(0, N, ell, pts / rr[:, None])
            f += sc * lam * phi * S
            sigma_mass += abs(sc)
            if N == 0:
                modes0 = channels(0, c, 0, n)
                exact += sc * lam * modes0[n].coeffs[0] / math.sqrt(2.0) * math.sqrt(
                    2.0 * math.pi
                )
        got = complex(np.sum(rule.weights() * f))
        assert abs(got - exact) <= 1e-12 * max(sigma_mass, 1.0)


class TestTruncationBound:
    def test_monotone_beyond_onset(self):
        vals = [gpsf.truncation_bound(0, 20.0, K) for K in range(28, 60, 4)]
        assert np.all(np.diff(vals) < 0.0)

    def test_reference_value(self):
        # frozen from direct evaluation of the envelope
        assert gpsf.truncation_bound(0, 20.0, 40) == pytest.approx(1.4917e-16, rel=1e-3)
        assert gpsf.truncation_bound(0, 20.0, 40) < 5e-16

    def test_doubling_bandwidth_shifts_onset(self):
        # at K sized for band limit c, the 2c bound is enormous by
        # comparison
        b1 = gpsf.truncation_bound(0, 20.0, 40)
        b2 = gpsf.truncation_bound(0, 40.0, 40)
        assert b2 > 1e8 * b1
        assert gpsf.truncation_bound(0, 40.0, 80) < 1e-12

    def test_term_past_the_float_range_gives_inf(self):
        # the first terms at band limit 6000 exceed 1e308: the bound is inf, not an OverflowError
        assert gpsf.truncation_bound(0, 6000.0, 2) == math.inf

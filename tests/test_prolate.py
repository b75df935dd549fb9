import math

import numpy as np
import pytest

import gpsf
from gpsf.prolate import ProlateChannel, RadialModeId, mode_from_json, mode_to_json

import oracles


class TestTridiagEntries:
    def test_zero_bandwidth_limit(self):
        ch = ProlateChannel(0, 1e-8, 2)
        for row in range(8):
            a, b, c = gpsf.tridiag_entries(ch, row)
            assert b == pytest.approx(gpsf.chi_zero(ch.mode_id(row)), rel=1e-12)
            assert abs(c) < 1e-14
            assert abs(a) < 1e-14

    def test_symmetry(self):
        ch = ProlateChannel(1, 35.0, 4)
        for row in range(50):
            _, _, c_here = gpsf.tridiag_entries(ch, row)
            a_next, _, _ = gpsf.tridiag_entries(ch, row + 1)
            assert c_here == pytest.approx(a_next, rel=1e-15)

    def test_diagonal_construction_identity(self):
        # diagonal = chi(0) + c^2/2 + c^2 alpha^2 / (2 t (t+2)); the c^2
        # terms enter with positive sign (the r^2 multiplication operator
        # is positive definite) and the off-diagonals are positive
        ch = ProlateChannel(0, 1.0, 0)
        _, b0, c0 = gpsf.tridiag_entries(ch, 0)
        assert b0 == pytest.approx(0.75 + 0.5, abs=0.0)
        assert c0 > 0.0

    def test_eigenvalues_increase_with_bandwidth(self):
        # first-order perturbation: chi grows like c^2 times a positive
        # diagonal element
        chi_small = gpsf.solve_channel(ProlateChannel(-1, 1e-3, 0), 0)[0].chi
        chi_mid = gpsf.solve_channel(ProlateChannel(-1, 0.3, 0), 0)[0].chi
        assert chi_mid > chi_small
        # 1D zero mode: chi ~ c^2 <x^2> = c^2 / 3 (a sign flip would give -c^2/3)
        assert chi_mid - chi_small == pytest.approx(0.09 / 3.0, rel=1e-2)


    @pytest.mark.parametrize("p, c, N", [(-1, 7.5, 1), (0, 100.0, 0), (0, 1e-8, 2), (1, 35.0, 4)])
    def test_matrix_matches_row_formulas(self, p, c, N):
        # the array assembly equals, bit for bit, the entries written out
        # row by row on Python floats
        ch = ProlateChannel(p, c, N)
        al, c2 = ch.alpha, c * c
        diag, sup = [], []
        for row in range(80):
            t = 2.0 * row + al
            shift = 0.0 if al == 0.0 else c2 * al * al / (2.0 * t * (t + 2.0))
            diag.append(shift + 0.5 * c2 + gpsf.chi_zero(ch.mode_id(row)))
            sup.append(c2 * (row + 1.0 + al) * (row + 1.0)
                       / ((t + 2.0) * math.sqrt(t + 3.0) * math.sqrt(t + 1.0)))
        mat = gpsf.tridiag_matrix(ch, 80)
        assert np.array_equal(mat.diag, diag) and np.array_equal(mat.offdiag, sup[:-1])
        for row in (0, 1, 79):
            a, b, cx = gpsf.tridiag_entries(ch, row)
            assert (a, b, cx) == ((sup[row - 1] if row else 0.0), diag[row], sup[row])


class TestChooseTruncation:
    def test_reference_configuration(self):
        ch = ProlateChannel(0, 20.0, 0)
        K = gpsf.choose_truncation(ch, 10, 1e-16)
        assert K >= int(np.ceil(np.e * 20.0 / 2.0))
        assert K >= 38

    def test_loose_eps_keeps_regime_bound(self):
        ch = ProlateChannel(0, 20.0, 0)
        assert gpsf.choose_truncation(ch, 0, 0.5) >= int(np.ceil((np.e * 20.0 - 0) / 2.0))

    def test_monotone_in_bandwidth(self):
        base = gpsf.choose_truncation(ProlateChannel(0, 20.0, 0), 0, 1e-16)
        doubled = gpsf.choose_truncation(ProlateChannel(0, 40.0, 0), 0, 1e-16)
        assert doubled - base >= int(np.ceil(np.e * 20.0 / 2.0)) - 11

    def test_validation(self):
        with pytest.raises(ValueError):
            gpsf.choose_truncation(ProlateChannel(0, 20.0, 0), 0, 1.5)


class TestSolveChannel:
    def test_small_bandwidth_eigenvalue(self):
        mode = gpsf.solve_channel(ProlateChannel(0, 1e-3, 0), 0)[0]
        assert mode.chi == pytest.approx(0.75, abs=1e-5)

    def test_small_bandwidth_coefficients(self):
        mode = gpsf.solve_channel(ProlateChannel(0, 1e-3, 0), 0)[0]
        assert mode.coeffs[0] == pytest.approx(1.0, abs=1e-5)
        assert np.max(np.abs(mode.coeffs[1:])) <= 1e-5

    def test_strictly_increasing_chi(self, channels):
        modes = channels(1, 50.0, 0, 30)
        chis = [m.chi for m in modes]
        assert np.all(np.diff(chis) > 0.0)

    def test_truncation_grows_until_the_tail_is_small(self):
        # at (0, 100, 0) the first K = 150 leaves mode 140 a large last
        # coefficient; one step of 20 brings every tail below 10 eps
        ch = ProlateChannel(0, 100.0, 0)
        assert gpsf.choose_truncation(ch, 140, 1e-16) == 150
        modes = gpsf.solve_channel(ch, 140)
        assert len(modes[0].coeffs) == 170
        assert max(abs(m.coeffs[-1]) for m in modes) < 1e-15

    def test_growth_cap_raises(self, monkeypatch):
        from gpsf import prolate

        monkeypatch.setattr(prolate, "_MAX_ENLARGEMENTS", 0)
        with pytest.raises(gpsf.NumericalError, match=r"coefficient tail .* at K=150 after 0"):
            gpsf.solve_channel(ProlateChannel(0, 100.0, 0), 140)
        # a first K that passes is not affected by the cap
        assert len(gpsf.solve_channel(ProlateChannel(0, 100.0, 0), 40)[0].coeffs) == 146


    def test_unit_norm_and_sign(self, channels):
        for m in channels(0, 20.0, 0, 10):
            assert np.linalg.norm(m.coeffs) == pytest.approx(1.0, abs=1e-14)
            assert m.phi_at_one() > 0.0


class TestEvalPhi:
    def test_weighted_norm(self, channels):
        mode = channels(0, 20.0, 0, 3)[3]
        val = oracles.weighted_inner(
            lambda x: gpsf.eval_phi(mode, x), lambda x: gpsf.eval_phi(mode, x), 0
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_positive_at_one(self, channels):
        for mode in channels(0, 20.0, 0, 8):
            assert gpsf.eval_phi(mode, 1.0) > 0.0

    def test_zero_at_origin_for_positive_order(self, channels):
        for N in (1, 2, 5):
            mode = channels(0, 15.0, N, 2)[2]
            assert gpsf.eval_phi(mode, 0.0) == 0.0

    def test_cross_mode_orthogonality(self, channels):
        modes = channels(0, 20.0, 0, 20)
        x, w = oracles.gauss_legendre_01(400)
        vals = np.vstack([gpsf.eval_phi(m, x) for m in modes])
        gram = (vals * (w * x)) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-11

    def test_integral_equation_residual(self, channels):
        for n in (0, 3):
            mode = channels(0, 20.0, 0, 3)[n]
            beta = gpsf.beta_direct(mode)
            rr = np.arange(0.1, 0.95, 0.1)
            phis = gpsf.eval_phi(mode, rr)
            scale = np.max(np.abs(beta * phis))
            for r, ph in zip(rr, phis):
                assert abs(beta * ph - oracles.h_apply_quad(mode, r)) <= 1e-10 * scale


class TestEvalPhiDeriv:
    def test_finite_difference(self, channels):
        mode = channels(0, 20.0, 0, 4)[4]
        h = 1e-6
        fd = (gpsf.eval_phi(mode, 0.4 + h) - gpsf.eval_phi(mode, 0.4 - h)) / (2.0 * h)
        assert gpsf.eval_phi_deriv(mode, 0.4) == pytest.approx(fd, rel=1e-7)

    def test_vanishes_at_origin_for_high_order(self, channels):
        for N in (2, 4):
            mode = channels(0, 15.0, N, 1)[1]
            vals = np.abs(gpsf.eval_phi_deriv(mode, np.array([1e-2, 1e-4, 1e-6])))
            assert np.all(np.diff(vals) < 0.0)
            assert vals[-1] < 1e-4 * max(abs(gpsf.eval_phi_deriv(mode, 0.5)), 1.0)

    def test_ode_residual(self, channels):
        mode = channels(0, 20.0, 0, 5)[5]
        p, c, N = 0, 20.0, 0
        x = 0.5
        phi = gpsf.eval_phi(mode, x)
        dphi = gpsf.eval_phi_deriv(mode, x)
        d2phi = gpsf.eval_phi_second_deriv(mode, x)
        resid = (
            x * x * (1.0 - x * x) * d2phi
            + ((p + 1.0) * x - (p + 3.0) * x**3) * dphi
            + (mode.chi * x * x - (p + 1.0) * (p + 3.0) / 4.0 * x * x - N * (N + p) - c * c * x**4)
            * phi
        )
        scale = max(abs(mode.chi * phi), abs(d2phi), 1.0)
        assert abs(resid) <= 1e-9 * scale


class TestCoefficientDecay:
    def test_tail_envelope(self, channels):
        # beyond the 2k + N >= e c threshold, coefficients sit under the
        # decay bound (constant 10)
        for n in (0, 5):
            mode = channels(0, 20.0, 0, 5)[n]
            beta = abs(gpsf.beta_direct(mode))
            k0 = int(np.ceil(np.e * 20.0 / 2.0)) + 1
            for k in range(k0, len(mode.coeffs)):
                bound = 10.0 / np.sqrt(2.0) / beta * 0.5 ** (2.0 * k + 1.0)
                assert abs(mode.coeffs[k]) <= max(bound, 1e-300)

    def test_truncation_stability(self):
        ch = ProlateChannel(0, 20.0, 0)
        K = gpsf.choose_truncation(ch, 6, 1e-16)
        a = gpsf.solve_channel(ch, 6, K=K)
        b = gpsf.solve_channel(ch, 6, K=K + 10)
        for ma, mb in zip(a, b):
            assert abs(ma.chi - mb.chi) <= 1e-13 * abs(mb.chi)
            m = len(ma.coeffs)
            assert np.max(np.abs(ma.coeffs - mb.coeffs[:m])) <= 1e-13


class TestSerialization:
    def test_round_trip_exact(self, channels):
        mode = channels(0, 20.0, 0, 3)[3]
        back = mode_from_json(mode_to_json(mode))
        assert back.chi == mode.chi
        assert back.n == mode.n
        assert back.channel == mode.channel
        assert np.array_equal(back.coeffs, mode.coeffs)


class TestChiZero:
    def test_base_case(self):
        assert gpsf.chi_zero(RadialModeId(0, 0, 0)) == 0.75

    def test_direct_substitution(self):
        assert gpsf.chi_zero(RadialModeId(1, 2, 1)) == pytest.approx(30.0, abs=0.0)

    def test_monotone_in_n(self):
        vals = [gpsf.chi_zero(RadialModeId(1, 3, n)) for n in range(12)]
        assert np.all(np.diff(vals) > 0.0)


class TestValidation:
    def test_channel_invariants(self):
        with pytest.raises(ValueError):
            ProlateChannel(0, -1.0, 0)
        with pytest.raises(ValueError):
            ProlateChannel(-1, 10.0, 2)
        with pytest.raises(ValueError):
            ProlateChannel(-2, 10.0, 0)

    def test_invalid_alpha(self):
        # alpha = N + p/2 = -1 would make the weight r^(2 alpha + 1) non-integrable
        with pytest.raises(ValueError):
            RadialModeId(-2, 0, 3)

    @pytest.mark.parametrize("p, N", [(-2, 0), (-1, 2)])
    def test_channel_and_mode_share_one_check(self, p, N):
        with pytest.raises(ValueError) as channel_error:
            ProlateChannel(p, 10.0, N)
        with pytest.raises(ValueError) as mode_error:
            RadialModeId(p, N, 0)
        assert str(channel_error.value) == str(mode_error.value)

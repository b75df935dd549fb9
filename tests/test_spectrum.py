import math

import numpy as np
import pytest
from scipy.special import eval_jacobi

import gpsf
from gpsf.prolate import ProlateChannel
from gpsf.spectrum import harmonic_count

import oracles
from golden import LAMBDA_CURVES


class TestBetaDirect:
    def test_leading_eigenvalue_disk(self, channels):
        # plateau value |lambda| = 2 pi / c, certified against the
        # integral equation in extended precision
        mode = channels(0, 100.0, 0, 0)[0]
        lam = abs(gpsf.lambda_from_beta(0, 0, gpsf.beta_direct(mode)))
        assert lam == pytest.approx(0.0628318530717959, rel=1e-12)

    def test_leading_eigenvalue_ball(self, channels):
        mode = channels(1, 50.0, 0, 0)[0]
        lam = abs(gpsf.lambda_from_beta(1, 0, gpsf.beta_direct(mode)))
        assert lam == pytest.approx(0.0445466239746536, rel=1e-12)

    def test_integral_equation_residual(self, channels):
        mode = channels(0, 20.0, 0, 4)[4]
        beta = gpsf.beta_direct(mode)
        r = 0.5
        assert beta * gpsf.eval_phi(mode, r) == pytest.approx(
            oracles.h_apply_quad(mode, r), rel=1e-10
        )


class TestConvertRtprime:
    def test_zero_input(self):
        out = gpsf.convert_rtprime(np.zeros(8), 3, 0)
        assert np.array_equal(out, np.zeros(8))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        lhs = gpsf.convert_rtprime(2.0 * x + y, 2, 1)
        rhs = 2.0 * gpsf.convert_rtprime(x, 2, 1) + gpsf.convert_rtprime(y, 2, 1)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("p", [-1, 0, 1, 2])
    @pytest.mark.parametrize("j", [0, 1, 4, 9])
    def test_single_mode_pointwise(self, p, j):
        # converted expansion must equal r * d/dr tbar_j pointwise; the
        # reference derivative comes from the differentiated Jacobi
        # recurrence plus the product/chain rule, a separate code path
        N = 1 if p == -1 else 3
        K = 14
        x = np.zeros(K)
        x[j] = 1.0
        out = gpsf.convert_rtprime(x, N, p)
        rr = np.linspace(0.05, 0.97, 50)
        lhs = rr * _tbar_deriv(p, N, j, rr)
        rhs = sum(out[m] * _tbar(p, N, m, rr) for m in range(K))
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_round_trip_least_squares(self):
        # project the converted expansion back onto the derivative basis
        rng = np.random.default_rng(5)
        N, p, K = 2, 0, 12
        x = rng.normal(size=K)
        out = gpsf.convert_rtprime(x, N, p)
        rr = np.linspace(1e-3, 1.0 - 1e-3, 600)
        target = sum(out[m] * _tbar(p, N, m, rr) for m in range(K))
        basis = np.vstack([rr * _tbar_deriv(p, N, j, rr) for j in range(K)])
        sol, *_ = np.linalg.lstsq(basis.T, target, rcond=None)
        assert np.max(np.abs(sol - x)) <= 1e-10


    @pytest.mark.parametrize("p, N", [(-1, 1), (0, 0), (0, 7), (1, 3)])
    @pytest.mark.parametrize("shape", [(1,), (37,), (1, 5), (9, 60)])
    def test_in_place_work_matches_the_array_expression(self, p, N, shape):
        # the conversion and r Phi' work in place, bit for bit as the array
        # expressions below, and leave their input untouched
        from gpsf import spectrum

        rng = np.random.default_rng(sum(shape) + 10 * (p + 1) + N)
        x = rng.normal(size=shape) * np.exp(rng.uniform(-60.0, 5.0, size=shape))
        x[..., ::4] *= -0.0  # signed zeros among the entries
        before = x.copy()
        ref = _convert_rtprime_reference(x, N, p)
        out = gpsf.convert_rtprime(x, N, p)
        assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))
        assert np.array_equal(spectrum._rphi_prime(x, N, p), ref - (p + 1) / 2.0 * x)
        assert np.array_equal(x, before) and np.array_equal(np.signbit(x), np.signbit(before))


def _convert_rtprime_reference(x, N, p):
    # the conversion as array expressions, one new array per step
    al = N + p / 2.0
    nu = al + 0.5
    k = np.arange(x.shape[-1])
    scale = np.sqrt(2.0 * (2.0 * k + al + 1.0))
    xh = x * scale
    sigma = np.cumsum(xh[..., ::-1], axis=-1)[..., ::-1]
    sigma_next = np.zeros_like(sigma)
    sigma_next[..., :-1] = sigma[..., 1:]
    y = sigma * (nu + 2.0 * k) + sigma_next * (nu + 2.0 * k + 1.0)
    return y / scale


def _tbar(p, N, n, rr):
    # r^((p+1)/2) times the orthonormal radial polynomial of mode n: scipy's
    # P_n^(alpha,0) at 1-2r^2 times the closed-form prefactor
    al = N + p / 2.0
    pref = (-1.0) ** n * math.sqrt(2.0 * (2.0 * n + al + 1.0))
    return pref * rr ** (N + (p + 1) / 2.0) * eval_jacobi(n, al, 0.0, 1.0 - 2.0 * rr * rr)


def _tbar_deriv(p, N, n, rr):
    # d/dr [ r^(N+(p+1)/2) * (-1)^n * norm * P_n(1-2r^2) ], with
    # d/dy P_n^(alpha,0) = (n+alpha+1)/2 P_{n-1}^(alpha+1,1)
    al = N + p / 2.0
    y = 1.0 - 2.0 * rr * rr
    e = N + (p + 1) / 2.0
    pref = (-1.0) ** n * math.sqrt(2.0 * (2.0 * n + al + 1.0))
    dp = (n + al + 1.0) / 2.0 * eval_jacobi(n - 1, al + 1.0, 1.0, y) if n > 0 else 0.0 * y
    return pref * (e * rr ** (e - 1.0) * eval_jacobi(n, al, 0.0, y) + rr**e * dp * (-4.0 * rr))


class TestChainIntegrals:
    def test_expansion_route_vs_quadrature(self, channels):
        # the chain's integrals, evaluated through the derivative
        # conversion and coefficient dot products, against brute-force
        # Gauss-Legendre on the integrand r Phi'_n(r) Phi_m(r) r^(p+1)
        for p, c, N in ((0, 20.0, 0), (1, 15.0, 2)):
            modes = channels(p, c, N, 7)
            x, w = oracles.gauss_legendre_01(400)
            for n, m in ((0, 1), (3, 4), (6, 5)):
                xs = gpsf.rphi_prime_coeffs(modes[n])
                ours = xs @ modes[m].coeffs
                dphi = gpsf.eval_phi_deriv(modes[n], x)
                phim = gpsf.eval_phi(modes[m], x)
                ref = float(np.sum(w * x * dphi * phim * x ** (p + 1.0)))
                assert ours == pytest.approx(ref, rel=1e-11, abs=1e-12)

    def test_stacked_products_match_per_pair_dots(self, channels):
        # the chain takes every I(n, n+1) and I(n+1, n) from two stacked
        # products; each is the one dot product X[n] @ A[n+1], bit for bit
        from gpsf import spectrum

        for p, c, N in ((-1, 30.0, 1), (0, 100.0, 0), (0, 55.0, 17), (1, 20.0, 4)):
            ch = ProlateChannel(p, c, N)
            modes = channels(p, c, N, 40)
            A = np.vstack([m.coeffs for m in modes])
            X = spectrum._rphi_prime(A, N, p)
            betas = [gpsf.beta_direct(modes[0])]
            for n in range(len(modes) - 1):
                betas.append(betas[-1] * float(X[n] @ A[n + 1]) / float(X[n + 1] @ A[n]))
            assert [t.beta for t in spectrum._chain(ch, modes, 0.0)] == betas


class TestCoefficientInnerProduct:
    """The weighted radial inner product of two expansions is their coefficient dot product."""

    def test_unit_vector(self):
        # a unit coefficient vector is a basis function of unit weighted norm
        from gpsf import kernels

        N, p = 2, 1
        x, w = oracles.gauss_legendre_01(400)
        B = kernels.rbar_basis(N + p / 2.0, N, 6, x)
        norms = (B * B) @ (w * x ** (p + 1.0))
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_orthogonal_units(self):
        # distinct unit coefficient vectors are orthogonal basis functions
        from gpsf import kernels

        N, p = 2, 1
        x, w = oracles.gauss_legendre_01(400)
        B = kernels.rbar_basis(N + p / 2.0, N, 6, x)
        gram = (B * (w * x ** (p + 1.0))) @ B.T
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-12

    def test_against_quadrature(self):
        from gpsf import kernels

        rng = np.random.default_rng(11)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        N, p = 2, 1
        x, w = oracles.gauss_legendre_01(400)
        B = kernels.rbar_basis(N + p / 2.0, N, 5, x)
        val = float(np.sum(w * (a @ B) * (b @ B) * x ** (p + 1.0)))
        assert a @ b == pytest.approx(val, abs=1e-12)


class TestBetaChain:
    def test_magnitude_non_increasing(self, channels):
        ch = ProlateChannel(0, 20.0, 0)
        chain = gpsf.beta_chain(ch, 18, modes=channels(0, 20.0, 0, 18))
        mags = [abs(t.beta) for t in chain]
        assert np.all(np.diff(mags) <= 0.0)

    def test_certified_transition_values(self, channels):
        # (p=0, c=100, N=0) transition eigenvalues, certified against the
        # integral equation in extended precision
        ch = ProlateChannel(0, 100.0, 0)
        chain = gpsf.beta_chain(ch, 35, modes=channels(0, 100.0, 0, 40))
        assert abs(chain[32].lam) == pytest.approx(0.0247068062683543, rel=1e-11)
        assert abs(chain[33].lam) == pytest.approx(0.0063943258046152, rel=1e-11)

    def test_matches_direct(self, channels):
        ch = ProlateChannel(0, 20.0, 0)
        modes = channels(0, 20.0, 0, 18)
        chain = gpsf.beta_chain(ch, 18, modes=modes)
        for t in chain:
            if t.mu > 1e-18:
                d = gpsf.beta_direct(modes[t.mode.n])
                assert t.beta == pytest.approx(d, rel=1e-11)

    def test_published_curve(self, channels):
        # clean reference curve reproduced through its transition
        pts = LAMBDA_CURVES[(0, 100.0, 10)]
        chain = gpsf.beta_chain(ProlateChannel(0, 100.0, 10), len(pts) - 1)
        for i, ref in enumerate(pts):
            assert abs(chain[i].lam) == pytest.approx(ref, rel=2e-12)


class TestTinyBandLimits:
    """Down to c = 1e-60 the coefficients near c^2 / gap keep the chain's digits."""

    @pytest.mark.parametrize("c", [1e-9, 1e-30, 1e-50])
    @pytest.mark.parametrize("kmax, routine", [(1, "dstebz"), (2, "dsterf")])
    def test_closed_forms(self, eigenvalue_routines, c, kmax, routine):
        # K = 37: two modes are found by bisection, three by QR; the c^2 and
        # c^4 terms of beta_1 and beta_2 at (p=0, N=0)
        chain = gpsf.beta_chain(ProlateChannel(0, c, 0), kmax)
        assert eigenvalue_routines == [routine]
        assert chain[0].beta == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert chain[1].beta == pytest.approx(-c * c / 96.0, rel=1e-14, abs=0.0)
        if kmax == 2:
            assert chain[2].beta == pytest.approx(c**4 / 23040.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p, N", [(-1, 0), (-1, 1), (0, 0), (0, 1), (0, 3), (1, 0), (1, 1),
                                      (1, 3)])
    def test_floor_keeps_the_small_c_scaling(self, p, N):
        # beta_n scales as c^(N+2n) at small c: from c = 1e-20 to the floor
        # 1e-60 every beta in the normal float range keeps it to 1e-12
        ref = gpsf.beta_chain(ProlateChannel(p, 1e-20, N), 2)
        floor = gpsf.beta_chain(ProlateChannel(p, 1e-60, N), 2)
        for n in range(3):
            log_expected = math.log(abs(ref[n].beta)) - 40.0 * (N + 2 * n) * math.log(10.0)
            if log_expected < math.log(1e-290):
                assert abs(floor[n].beta) < 1e-280
                continue
            assert math.copysign(1.0, floor[n].beta) == math.copysign(1.0, ref[n].beta)
            assert abs(math.log(abs(floor[n].beta)) - log_expected) <= 1e-12


class TestEigenTripleStructure:
    def test_lambda_reality_by_parity(self, channels):
        for N, expect_real in ((0, True), (1, False), (2, True), (3, False)):
            chain = gpsf.beta_chain(ProlateChannel(0, 10.0, N), 2)
            for t in chain:
                if expect_real:
                    assert t.lam.imag == 0.0
                else:
                    assert t.lam.real == 0.0

    def test_mu_in_unit_interval(self, channels):
        chain = gpsf.beta_chain(ProlateChannel(1, 30.0, 0), 20)
        for t in chain:
            assert 0.0 < t.mu < 1.0

    def test_mode_count_near_closed_form(self):
        # the count of eigenvalues above 1/2 tracks the leading-order
        # closed form; the crossing sits inside the transition band, so
        # the deviation is bounded by half the band's population
        for p, c in ((0, 20.0), (0, 50.0), (1, 20.0), (1, 50.0)):
            count = 0.0
            for N in range(int(c) + 20):
                h = harmonic_count(p, N)
                if h == 0:
                    continue
                chain = gpsf.beta_chain(ProlateChannel(p, c, N), int(c), mu_stop=0.2)
                big = sum(1 for t in chain if t.mu > 0.5)
                if big == 0 and N > c / 2.0:
                    break
                count += h * big
            expect = c ** (p + 2) / (2.0 ** (p + 2) * math.gamma(p / 2.0 + 2.0) ** 2)
            transition = c ** (p + 1) * math.log(c) / (math.pi**2 * math.gamma(p + 2.0))
            assert abs(count - expect) <= max(3.0, 0.5 * transition)


class TestMuSum:
    def test_closed_form_disk(self):
        _, closed = gpsf.mu_sum_check(0, 20.0, 0, 0)
        assert closed == pytest.approx(100.0, abs=0.0)

    def test_closed_form_ball(self):
        _, closed = gpsf.mu_sum_check(1, 10.0, 0, 0)
        assert closed == pytest.approx(1000.0 / (8.0 * math.gamma(2.5) ** 2), rel=1e-15)

    def test_partial_sum_ratio(self):
        partial, closed = gpsf.mu_sum_check(0, 20.0, 60, 60)
        ratio = partial / closed
        assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-10


def _full_solve_sum(p, c, Nmax, nmax):
    """The spectral sum with every channel solved for all nmax + 1 modes."""
    total = 0.0
    for N in range(Nmax + 1):
        h = harmonic_count(p, N)
        if h == 0:
            continue
        ch = ProlateChannel(p, c, N)
        chain = gpsf.beta_chain(ch, nmax, modes=gpsf.solve_channel(ch, nmax), mu_stop=1e-26)
        total += h * sum(t.mu for t in chain)
    return total


class TestRightSizedSum:
    """mu_sum_check solves only the modes each chain uses."""

    @pytest.mark.parametrize("p, c", [(-1, 80.0), (0, 50.0), (1, 50.0)])
    def test_matches_full_solves(self, p, c):
        Nmax = nmax = int(c) + 40
        partial, closed = gpsf.mu_sum_check(p, c, Nmax, nmax)
        assert partial == pytest.approx(_full_solve_sum(p, c, Nmax, nmax), rel=1e-14, abs=0.0)
        assert partial == pytest.approx(closed, rel=1e-13, abs=0.0)

    def test_eigenvector_columns_requested(self, monkeypatch):
        # at (0, 50) the chains use about a seventh of the (Nmax+1)(nmax+1)
        # modes that full solves would compute
        from gpsf import prolate

        columns = []
        real = prolate.eigh_tridiagonal

        def counted(d, e, m):
            columns.append(m)
            return real(d, e, m)

        monkeypatch.setattr(prolate, "eigh_tridiagonal", counted)
        Nmax = nmax = 90
        gpsf.mu_sum_check(0, 50.0, Nmax, nmax)
        assert 0 < sum(columns) <= (Nmax + 1) * (nmax + 1) / 4

    @pytest.mark.parametrize("p, c, N, mu_stop", [(0, 100.0, 0, 1e-26), (1, 50.0, 3, 1e-18),
                                                  (-1, 80.0, 1, 1e-18)])
    def test_chain_matches_full_solve(self, p, c, N, mu_stop):
        # beta_chain with mu_stop and no modes solves in growing batches;
        # it stops at the same mode as the chain over one full solve
        ch = ProlateChannel(p, c, N)
        kmax = int(c) + 40
        sized = gpsf.beta_chain(ch, kmax, mu_stop=mu_stop)
        full = gpsf.beta_chain(ch, kmax, modes=gpsf.solve_channel(ch, kmax), mu_stop=mu_stop)
        assert len(sized) == len(full) > 17
        for a, b in zip(sized, full):
            assert a.mu == pytest.approx(b.mu, rel=1e-10, abs=1e-30)

    def test_too_few_modes_rejected(self, channels):
        with pytest.raises(ValueError, match="needs 6 modes"):
            gpsf.beta_chain(ProlateChannel(0, 20.0, 0), 5, modes=channels(0, 20.0, 0, 3)[:4])

    @pytest.mark.parametrize("given, channel", [((0, 30.0, 0), (0, 20.0, 0)),
                                                ((1, 30.0, 2), (0, 30.0, 0))])
    def test_modes_of_another_channel_rejected(self, channels, monkeypatch, given, channel):
        # another c would give beta of one channel with mu of the other, another p or N a wrong lambda
        from gpsf import spectrum

        def no_chain(*a):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(spectrum, "_chain", no_chain)
        with pytest.raises(ValueError, match=r"mode 0 of ProlateChannel\(p=.* given for the chain"):
            gpsf.beta_chain(ProlateChannel(*channel), 3, modes=channels(*given, 3))


class TestBetaDc:
    def test_finite_difference(self):
        c, dc = 20.0, 20.0 * 1e-4
        mode = gpsf.solve_channel(ProlateChannel(0, c, 0), 0)[0]
        triple = gpsf.beta_chain(ProlateChannel(0, c, 0), 0, modes=[mode])[0]
        dbeta, dmu = gpsf.beta_dc(mode, triple)
        lo = gpsf.beta_chain(ProlateChannel(0, c - dc, 0), 0)[0]
        hi = gpsf.beta_chain(ProlateChannel(0, c + dc, 0), 0)[0]
        assert dbeta == pytest.approx((hi.beta - lo.beta) / (2.0 * dc), rel=1e-6)
        # top mode is pinned at mu ~ 1: derivative is positive but below
        # the finite-difference noise floor; check a transition mode too
        assert dmu >= 0.0
        modes6 = gpsf.solve_channel(ProlateChannel(0, c, 0), 6)
        t6 = gpsf.beta_chain(ProlateChannel(0, c, 0), 6, modes=modes6)[6]
        db6, dm6 = gpsf.beta_dc(modes6[6], t6)
        lo6 = gpsf.beta_chain(ProlateChannel(0, c - dc, 0), 6)[6]
        hi6 = gpsf.beta_chain(ProlateChannel(0, c + dc, 0), 6)[6]
        assert db6 == pytest.approx((hi6.beta - lo6.beta) / (2.0 * dc), rel=1e-6)
        assert dm6 == pytest.approx((hi6.mu - lo6.mu) / (2.0 * dc), rel=1e-5)

    def test_sign_structure(self, channels):
        # near-unit modes cannot lose mass as the band limit grows
        modes = channels(0, 20.0, 0, 4)
        chain = gpsf.beta_chain(ProlateChannel(0, 20.0, 0), 4, modes=modes)
        for t in chain:
            if t.mu > 0.99:
                _, dmu = gpsf.beta_dc(modes[t.mode.n], t)
                assert dmu >= 0.0
        for t in chain:
            dbeta, _ = gpsf.beta_dc(modes[t.mode.n], t)
            expected = math.copysign(
                1.0, modes[t.mode.n].phi_at_one() ** 2 - 2.0
            ) * math.copysign(1.0, t.beta)
            if dbeta != 0.0:
                assert math.copysign(1.0, dbeta) == expected


class TestHarmonicCount:
    def test_known_values(self):
        assert harmonic_count(0, 0) == 1
        assert harmonic_count(0, 5) == 2
        assert harmonic_count(1, 0) == 1
        assert harmonic_count(1, 4) == 9
        assert harmonic_count(-1, 0) == 1
        assert harmonic_count(-1, 1) == 1
        assert harmonic_count(-1, 2) == 0

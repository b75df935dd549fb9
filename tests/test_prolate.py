import math

import numpy as np
import pytest

import gpsf
from gpsf.prolate import ProlateChannel, RadialModeId

import oracles


def _zero_bandwidth_chi(p, N, n):
    # chi_{N,n}(0) = (N+p/2+2n+1/2)(N+p/2+2n+3/2)
    s = N + p / 2.0 + 2.0 * n
    return (s + 0.5) * (s + 1.5)


class TestTridiagEntries:
    def test_zero_bandwidth_limit(self):
        # at c = 1e-9 the c^2 terms are below the diagonal's ulp: it is chi at c = 0
        for p, N in [(-1, 1), (0, 2), (1, 3)]:
            diag, offdiag = gpsf.tridiag_matrix(ProlateChannel(p, 1e-9, N), 8)
            assert diag.tolist() == [_zero_bandwidth_chi(p, N, row) for row in range(8)]
            assert len(offdiag) == 7 and np.all(np.abs(offdiag) < 1e-17)

    def test_symmetry(self):
        # one off-diagonal serves both sides, and each entry depends on its row
        # alone: every section is the leading block of a larger one
        ch = ProlateChannel(1, 35.0, 4)
        diag, offdiag = gpsf.tridiag_matrix(ch, 51)
        for K in (1, 2, 50):
            d, e = gpsf.tridiag_matrix(ch, K)
            assert len(e) == K - 1
            assert np.array_equal(d, diag[:K]) and np.array_equal(e, offdiag[: K - 1])
        dense = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        assert np.array_equal(dense, dense.T) and np.all(offdiag > 0.0)

    def test_diagonal_construction_identity(self):
        # diagonal = chi(0) + c^2/2 + c^2 alpha^2 / (2 t (t+2)); the c^2
        # terms enter with positive sign (the r^2 multiplication operator
        # is positive definite) and the off-diagonals are positive
        diag, offdiag = gpsf.tridiag_matrix(ProlateChannel(0, 1.0, 0), 2)
        assert diag[0] == 0.75 + 0.5
        assert offdiag[0] > 0.0

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
            diag.append(shift + 0.5 * c2 + _zero_bandwidth_chi(p, N, row))
            sup.append(c2 * (row + 1.0 + al) * (row + 1.0)
                       / ((t + 2.0) * math.sqrt(t + 3.0) * math.sqrt(t + 1.0)))
        got_diag, got_sup = gpsf.tridiag_matrix(ch, 80)
        assert np.array_equal(got_diag, diag) and np.array_equal(got_sup, sup[:-1])

    def test_non_finite_entries_refused(self, monkeypatch):
        from gpsf import prolate

        with pytest.raises(ValueError, match="matrix entries must be finite"):
            gpsf.tridiag_matrix(ProlateChannel(0, 1e200, 0), 4)
        # a truncation the limit would refuse, so that the solve reaches the matrix
        monkeypatch.setattr(prolate, "choose_truncation", lambda ch, nmax: 40)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            gpsf.solve_channel(ProlateChannel(0, 1e200, 0), 2)


class TestChooseTruncation:
    def test_reference_configuration(self):
        ch = ProlateChannel(0, 20.0, 0)
        K = gpsf.choose_truncation(ch, 10)
        assert K >= int(np.ceil(np.e * 20.0 / 2.0))
        assert K >= 38

    def test_monotone_in_bandwidth(self):
        base = gpsf.choose_truncation(ProlateChannel(0, 20.0, 0), 0)
        doubled = gpsf.choose_truncation(ProlateChannel(0, 40.0, 0), 0)
        assert doubled - base >= int(np.ceil(np.e * 20.0 / 2.0)) - 11

    def test_validation(self):
        with pytest.raises(ValueError, match="nmax must be nonnegative"):
            gpsf.choose_truncation(ProlateChannel(0, 20.0, 0), -1)

    @pytest.mark.parametrize("p", [-1, 0, 1])
    def test_unchanged_below_the_limit(self, p):
        # the integer formula, max(ceil((e c - N)/2), halving bound, nmax) + 10, up to c = 1000
        for c in np.concatenate([np.geomspace(1e-6, 1000.0, 40), [14.0, 100.0, 1000.0]]):
            for N, nmax in ((0, 0), (1, 40), (0, 399)):
                ch = ProlateChannel(p, float(c), N)
                k_regime = max(0, math.ceil((math.e * ch.c - N) / 2.0))
                halving = (-math.log(1e-16) / math.log(2.0) - ch.alpha - 1.0) / 2.0
                k_halving = max(0, math.ceil(halving))
                expect = max(max(k_regime, k_halving) + 10, nmax + 10)
                assert gpsf.choose_truncation(ch, nmax) == expect

    @pytest.mark.parametrize("c, nmax, K", [(14700.0, 0, 19990), (20.0, 19989, 19999)])
    def test_largest_accepted(self, c, nmax, K):
        assert gpsf.choose_truncation(ProlateChannel(0, c, 0), nmax) == K

    @pytest.mark.parametrize("c, nmax", [(14710.0, 0), (1e9, 2), (1e308, 2), (20.0, 19991)])
    def test_refused_above_the_limit(self, c, nmax):
        with pytest.raises(ValueError, match="needs more than 20000 Zernike coefficients"):
            gpsf.choose_truncation(ProlateChannel(0, c, 0), nmax)


class TestEigenvectorLimit:
    """K * (nmax + 1) eigenvector entries at most 25,000,000, checked before the solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from gpsf import prolate

        calls = []

        def stop(*a, **k):
            calls.append(len(a[0]))
            raise RuntimeError("solve reached")

        monkeypatch.setattr(prolate, "eigh_tridiagonal", stop)
        return calls

    @pytest.mark.parametrize("nmax", [4995, 19000])
    def test_refused_before_the_solve(self, solves, nmax):
        with pytest.raises(ValueError, match="eigenvector entries, above the limit of 25000000"):
            gpsf.solve_channel(ProlateChannel(0, 20.0, 0), nmax)
        assert solves == []

    def test_explicit_truncation_is_checked(self, solves, monkeypatch):
        # the limit holds for whatever truncation the solve starts from
        from gpsf import prolate

        monkeypatch.setattr(prolate, "choose_truncation", lambda ch, nmax: 2_500_001)
        with pytest.raises(ValueError, match="needs 2500001 x 10 eigenvector entries"):
            gpsf.solve_channel(ProlateChannel(0, 20.0, 0), 9)
        assert solves == []

    def test_largest_accepted(self, solves):
        # K = 5004 and 4995 modes: 24,994,980 entries
        with pytest.raises(RuntimeError, match="solve reached"):
            gpsf.solve_channel(ProlateChannel(0, 20.0, 0), 4994)
        assert solves == [5004]


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
        # coefficient; one step of 20 brings every tail below 1e-15
        ch = ProlateChannel(0, 100.0, 0)
        assert gpsf.choose_truncation(ch, 140) == 150
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


class TestEigensolve:
    """prolate.eigh_tridiagonal: QR or bisection for the eigenvalues, one-block inverse iteration."""

    def test_chi_against_sturm_bisection(self):
        # the five lowest chi of the solved K-section against 40-digit bisection
        # of the same float entries
        ch = ProlateChannel(0, 100.0, 0)
        modes = gpsf.solve_channel(ch, 68)
        diag, offdiag = gpsf.tridiag_matrix(ch, len(modes[0].coeffs))
        for n in range(5):
            exact = oracles.tridiag_eigenvalue_mp(diag, offdiag, n)
            assert abs(float((modes[n].chi - exact) / exact)) <= 5e-15

    # the m lowest pairs against SciPy's select_range=(0, m - 1)
    @pytest.mark.parametrize("select_range, routine", [((0, 68), "dsterf"), ((0, 9), "dsterf"),
                                                       ((0, 8), "dstebz"), ((0, 4), "dstebz"),
                                                       ((0, 40), "dsterf")])
    def test_both_sides_of_the_size_rule_agree_with_stebz(self, eigenvalue_routines,
                                                          select_range, routine):
        # K = 146: QR from 10 eigenvalues on (16 * 10 >= 146), bisection below
        from scipy.linalg import eigh_tridiagonal as scipy_eigh

        from gpsf import prolate

        diag, offdiag = gpsf.tridiag_matrix(ProlateChannel(0, 100.0, 0), 146)
        w, v = prolate.eigh_tridiagonal(diag, offdiag, select_range[1] + 1)
        assert eigenvalue_routines == [routine]
        w_ref, v_ref = scipy_eigh(diag, offdiag, select="i", select_range=select_range,
                                  lapack_driver="stebz")
        assert w.shape == w_ref.shape and v.shape == v_ref.shape
        assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-13
        v = v * np.sign(np.sum(v * v_ref, axis=0))
        assert np.max(np.abs(v - v_ref)) <= 1e-13

    @pytest.mark.parametrize("m", [0, 31])
    def test_pair_count_checked(self, m):
        from gpsf import prolate

        diag, offdiag = gpsf.tridiag_matrix(ProlateChannel(0, 10.0, 0), 30)
        with pytest.raises(ValueError, match=f"{m} eigenpairs asked of a 30-by-30 matrix"):
            prolate.eigh_tridiagonal(diag, offdiag, m)
        assert prolate.eigh_tridiagonal(diag, offdiag, 30)[1].shape == (30, 30)

    @pytest.mark.parametrize("routine, nmax", [("dsterf", 40), ("dstebz", 2), ("dstein", 40),
                                               ("dstein", 2)])
    def test_lapack_failure_names_channel_and_truncation(self, monkeypatch, routine, nmax):
        # K = 146 at (0, 100, 0): nmax 40 takes the QR side, nmax 2 bisection
        from gpsf import prolate

        real = getattr(prolate, routine)
        monkeypatch.setattr(prolate, routine, lambda *a: (*real(*a)[:-1], 7))
        with pytest.raises(gpsf.NumericalError, match=rf"channel ProlateChannel\(p=0, c=100.0, N=0\) "
                                                      rf"\(K=146\): {routine} returned info=7"):
            gpsf.solve_channel(ProlateChannel(0, 100.0, 0), nmax)


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


class TestEvalRadii:
    """eval_phi and its derivative refuse a radius that is not finite before any build;
    tabulate, which Newton trials call, leaves its radii to the caller."""

    EVALS = (gpsf.eval_phi, gpsf.eval_phi_deriv, gpsf.eval_phi_and_deriv)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_refused(self, channels, monkeypatch, bad):
        from gpsf import kernels

        mode = channels(0, 20.0, 0, 3)[3]
        monkeypatch.setattr(kernels, "_basis", None)  # a build would fail otherwise
        for evaluate in self.EVALS:
            for r in (bad, np.array([0.2, bad, 0.7])):
                with pytest.raises(ValueError, match=f"radii must be finite, got {bad}$"):
                    evaluate(mode, r)

    def test_tabulate_takes_a_nan_radius(self, channels):
        mode = channels(0, 20.0, 0, 3)[3]
        with np.errstate(invalid="ignore"):
            f, df = gpsf.prolate.tabulate(mode, np.array([0.2, np.nan, 0.7]), deriv=True)
        for t in (f, df):
            assert np.isnan(t[1]) and np.isfinite(t[[0, 2]]).all()

    def test_no_radii(self, channels):
        modes = channels(0, 20.0, 0, 5)[:6]
        assert gpsf.prolate.tabulate(modes, []).shape == (6, 0)
        assert [t.shape for t in gpsf.prolate.tabulate(modes, [], deriv=True)] == [(6, 0)] * 2
        tables = gpsf.prolate.tabulate_channels([modes, modes[:2]], [])
        assert [t.shape for t in tables] == [(6, 0), (2, 0)]
        assert gpsf.eval_phi(modes[0], np.array([])).shape == (0,)
        assert [t.shape for t in gpsf.eval_phi_and_deriv(modes[0], np.array([]))] == [(0,)] * 2

    @pytest.mark.parametrize("columns", [0, 1 << 30])
    def test_overflow_on_some_radii_raises(self, monkeypatch, columns):
        # the loop and the banded solve alike: at (0, 4000, 2000) the basis overflows below
        # r = 0.75 and stays finite above it
        from gpsf import kernels

        monkeypatch.setattr(kernels, "_SOLVE_COLUMNS", columns)
        mode = gpsf.solve_channel(ProlateChannel(0, 4000.0, 2000), 2)[2]
        r = np.array([0.3, 0.75, 0.7, 0.9, 1.0])
        for evaluate in self.EVALS:
            with pytest.raises(gpsf.NumericalError, match=r"N=2000, n=2\) are not finite .* overflows$"):
                evaluate(mode, r)
        with np.errstate(over="ignore", invalid="ignore"):
            f = gpsf.prolate.tabulate(mode, r)
        assert np.isfinite(f).tolist() == [False, True, False, True, True]


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

    def test_truncation_stability(self, monkeypatch):
        from gpsf import prolate

        ch = ProlateChannel(0, 20.0, 0)
        K = gpsf.choose_truncation(ch, 6)
        a = gpsf.solve_channel(ch, 6)
        monkeypatch.setattr(prolate, "choose_truncation", lambda ch, nmax: K + 10)
        b = gpsf.solve_channel(ch, 6)
        assert len(a[0].coeffs) == K and len(b[0].coeffs) == K + 10
        for ma, mb in zip(a, b):
            assert abs(ma.chi - mb.chi) <= 1e-13 * abs(mb.chi)
            m = len(ma.coeffs)
            assert np.max(np.abs(ma.coeffs - mb.coeffs[:m])) <= 1e-13


class TestChiZero:
    """The diagonal at c = 1e-9 is the zero-bandwidth eigenvalue (s+1/2)(s+3/2), s = alpha + 2n."""

    @staticmethod
    def _chi(p, N, n):
        return gpsf.tridiag_matrix(ProlateChannel(p, 1e-9, N), n + 1)[0][n]

    def test_base_case(self):
        assert self._chi(0, 0, 0) == 0.75

    def test_direct_substitution(self):
        assert self._chi(1, 2, 1) == 30.0

    def test_monotone_in_n(self):
        vals = gpsf.tridiag_matrix(ProlateChannel(1, 1e-9, 3), 12)[0]
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


class TestSupport:
    def test_tabulation_stops_at_the_widest_support(self, channels, monkeypatch):
        # at c=1000 the solve keeps 1370 coefficients; the top mode needs about 600
        from gpsf import kernels

        modes = channels(0, 1000.0, 0, 399)[:400]
        rows = []
        real = kernels.rbar_basis

        def counted(alpha, N, K, r):
            rows.append(K)
            return real(alpha, N, K, r)

        monkeypatch.setattr(kernels, "rbar_basis", counted)
        gpsf.prolate.tabulate(modes, np.linspace(0.0, 1.0, 5))
        assert rows == [max(m.support for m in modes)]
        assert rows[0] <= 620 < len(modes[0].coeffs)
        for m in modes[::57]:
            assert np.all(np.abs(m.coeffs[m.support:]) <= 1e-20) and abs(m.coeffs[m.support - 1]) > 1e-20

    def test_widest_support_from_the_stacked_modes(self, monkeypatch):
        # a solve's rows are cut at their last column with an entry above 1e-20, and kept
        # whole when a row has no such entry, as the largest per-mode support would give
        from gpsf import kernels

        ch = ProlateChannel(0, 3.0, 1)
        short, longer, tiny = range(3)
        solve = gpsf.ChannelSolve(ch, np.arange(3), np.zeros(3), np.array(
            [[0.6, -0.8, 1e-20, 0.0, 0.0], [0.0, 0.6, 0.0, -0.8, 1e-21], np.full(5, 1e-21)]))
        rows = []
        real = kernels.rbar_basis
        monkeypatch.setattr(kernels, "rbar_basis", lambda *a: rows.append(a[2]) or real(*a))
        for picked in ([short], [short, longer], [short, tiny], [longer, short]):
            modes = solve[picked]
            assert gpsf.prolate.tabulate(modes, np.linspace(0.0, 1.0, 7)).shape == (len(modes), 7)
            assert rows.pop() == max(m.support for m in modes)
        assert [m.support for m in solve] == [2, 4, 5]

    @pytest.mark.parametrize("p,c,N,n", [(0, 5.0, 40, 6), (0, 1000.0, 0, 399), (-1, 20.0, 1, 15)])
    def test_trimmed_matches_full_length(self, channels, p, c, N, n):
        # N >> c, c = 1000 and the interval's odd channel, at an array of radii and
        # one radius at a time.  A single radius is a dot product whose summation
        # order changes with its length: at r = 1, where Phi' cancels from terms of
        # size k^2 |a_k| far above max |Phi'|, its bound is set by the sum of the
        # terms' magnitudes
        from gpsf import kernels

        r = np.linspace(0.0, 1.0, 101)
        for mode in channels(p, c, N, n)[: n + 1 : max(n // 4, 1)]:
            alpha = mode.channel.alpha
            B, D = kernels.rbar_basis_with_deriv(alpha, N, len(mode.coeffs), r)
            full, dfull = mode.coeffs @ B, mode.coeffs @ D
            tab, dtab = gpsf.eval_phi_and_deriv(mode, r)
            bound, dbound = 4e-15 * np.max(np.abs(full)), 4e-15 * np.max(np.abs(dfull))
            assert np.max(np.abs(tab - full)) <= bound
            assert np.max(np.abs(dtab - dfull)) <= dbound
            for i in range(0, 101, 10):
                f, df = gpsf.eval_phi_and_deriv(mode, float(r[i]))
                B1, D1 = kernels.rbar_basis_with_deriv(alpha, N, len(mode.coeffs), r[i : i + 1])
                sums = 4e-15 * (np.abs(mode.coeffs) @ np.abs(np.hstack([B1, D1])))
                assert abs(f - mode.coeffs @ B1[:, 0]) <= max(bound, sums[0])
                assert abs(df - mode.coeffs @ D1[:, 0]) <= max(dbound, sums[1])


class TestChannelSolve:
    """A solve is one coefficient matrix, read by row, by slice and by a list of rows."""

    def test_row_is_its_mode_as_a_view(self, channels):
        solve = channels(0, 20.0, 3, 8)
        for i, n in ((0, 0), (5, 5), (-1, len(solve) - 1)):
            mode = solve[i]
            assert isinstance(mode, gpsf.ZernikeCoeffs) and mode.channel is solve.channel
            assert mode.n == n and type(mode.n) is int
            assert mode.chi == solve.chis[n] and type(mode.chi) is float
            assert np.shares_memory(mode.coeffs, solve.coeffs)
            assert mode.coeffs.tobytes() == solve.coeffs[n].tobytes()
        assert [m.n for m in solve] == list(range(len(solve))) == solve.ns.tolist()

    @pytest.mark.parametrize("rows", [slice(2, 7), slice(None, None, 3), [6, 1, 4]])
    def test_rows_give_the_solve_of_those_rows(self, channels, rows):
        solve = channels(0, 20.0, 3, 8)
        picked = np.arange(len(solve))[rows]
        part = solve[rows]
        assert isinstance(part, gpsf.ChannelSolve) and part.channel is solve.channel
        assert len(part) == len(picked) and part.ns.tolist() == picked.tolist()
        assert part.chis.tolist() == solve.chis[picked].tolist()
        assert part.coeffs.tobytes() == solve.coeffs[picked].tobytes()
        assert [(m.n, m.chi) for m in part] == [(solve[n].n, solve[n].chi) for n in picked.tolist()]

    @pytest.mark.parametrize("rows", [slice(0, 5), [40, 3, 17], slice(10, 41, 6)])
    def test_row_subset_tabulates_at_its_own_support(self, channels, monkeypatch, rows):
        # the rows' widest support sizes the build, and the table has the bits of the rows
        # stacked into a new array, cut to that support and multiplied by the basis
        from gpsf import kernels

        solve = channels(0, 100.0, 0, 40)
        part = solve[rows]
        K = max(m.support for m in part)
        A = np.ascontiguousarray(np.array([m.coeffs for m in part])[:, :K])
        r = np.linspace(0.0, 1.0, 9)
        B, D = kernels.rbar_basis_with_deriv(0.0, 0, K, r)
        builds = []
        for name in ("rbar_basis", "rbar_basis_with_deriv"):
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *a, _f=real: builds.append(a[2]) or _f(*a))
        f = gpsf.prolate.tabulate(part, r)
        g, dg = gpsf.prolate.tabulate(part, r, deriv=True)
        assert builds == [K, K] and part.support == K
        assert f.tobytes() == g.tobytes() == (A @ B).tobytes() and dg.tobytes() == (A @ D).tobytes()
        assert solve[:5].support < solve.support


class TestChannelBatch:
    """tabulate_channels: several channels at the same radii, each table with tabulate's bits."""

    RADII = np.concatenate([[0.0, 1e-6, 1.0], np.linspace(0.05, 0.95, 9)])

    @staticmethod
    def _mode_lists(channels):
        # disk channels with uneven supports and mode counts, one mode on its own,
        # and a channel of the interval
        lists = [channels(0, 20.0, N, 9)[: 3 + N % 4] for N in (0, 1, 2, 7, 30)]
        return lists + [channels(0, 20.0, 4, 9)[5], channels(-1, 20.0, 1, 6)[::2]]

    @pytest.mark.parametrize("one_radius", [False, True])
    def test_tables_bit_identical_to_tabulate(self, channels, monkeypatch, one_radius):
        from gpsf import kernels, prolate

        r = self.RADII[4:5] if one_radius else self.RADII
        lists = self._mode_lists(channels)
        builds = []
        real = kernels.rbar_basis
        monkeypatch.setattr(kernels, "rbar_basis", lambda *a: builds.append(a) or real(*a))
        tables = list(prolate.tabulate_channels(lists, r))
        assert len(builds) == 1 and np.shape(builds[0][3]) == (len(lists), len(r))
        monkeypatch.setattr(kernels, "rbar_basis", real)
        assert len(tables) == len(lists)
        for modes, table in zip(lists, tables):
            assert table.tobytes() == prolate.tabulate(modes, r).tobytes()

    def test_blocks_bound_the_build(self, channels, monkeypatch):
        # with room for about two channels per build the request takes several builds,
        # none past the limit unless it holds one channel, with the same bits
        from gpsf import kernels, prolate

        lists = self._mode_lists(channels)
        whole = list(prolate.tabulate_channels(lists, self.RADII))
        limit = 2 * max(m.support for m in lists[0]) * len(self.RADII)
        monkeypatch.setattr(prolate, "_BLOCK_ENTRIES", limit)
        builds = []  # (entries, channels) of each build
        real = kernels.rbar_basis
        monkeypatch.setattr(kernels, "rbar_basis",
                            lambda *a: builds.append((a[2] * np.size(a[3]), len(a[3]))) or real(*a))
        blocked = list(prolate.tabulate_channels(lists, self.RADII))
        assert len(builds) >= 3 and sum(n for _, n in builds) == len(lists)
        assert all(entries <= limit or n == 1 for entries, n in builds)
        assert [t.tobytes() for t in blocked] == [t.tobytes() for t in whole]

    # no channels, one solve of no rows, and a solve followed by one of no rows
    @pytest.mark.parametrize("lists", [[], [0], "mixed"])
    def test_empty_requests_refused(self, channels, lists):
        from gpsf import prolate

        solve = channels(0, 20.0, 0, 3)
        lists = [solve, solve[:0]] if lists == "mixed" else [solve[:rows] for rows in lists]
        with pytest.raises(ValueError, match="no (channels|modes) to tabulate"):
            list(prolate.tabulate_channels(lists, self.RADII))

    def test_empty_mode_list_refused_by_tabulate(self, channels):
        with pytest.raises(ValueError, match="no modes to tabulate"):
            gpsf.prolate.tabulate(channels(0, 20.0, 0, 3)[:0], self.RADII)


class TestNonFiniteBandLimit:
    @pytest.mark.parametrize("c", [math.inf, math.nan, -math.inf])
    def test_refused(self, c):
        with pytest.raises(ValueError, match="band limit must be positive and finite"):
            ProlateChannel(0, c, 0)


class TestTinyBandLimit:
    @pytest.mark.parametrize("c", [1e-61, 1e-75, 5e-324])
    def test_refused_below_the_floor(self, c):
        with pytest.raises(ValueError, match="is below 1e-60, where the eigenvalue chain"):
            ProlateChannel(0, c, 0)

    def test_floor_is_accepted(self):
        assert ProlateChannel(-1, 1e-60, 1).c == 1e-60

"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest report.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import gpsf
from gpsf.interp import ChannelCache
from gpsf.prolate import ProlateChannel

import oracles
from golden import (
    CHEB20_RADIAL_ERRORS,
    COEFF_TABLES,
    DISK_INTEGRAL_EXACT,
    DISK_INTEGRAL_TABLE,
    LAMBDA_CURVES,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _disk_rule(kind, c, n_radial, m_angular):
    ch = ProlateChannel(0, c, 0)
    radial = gpsf.chebyshev_rule(ch, n_radial) if kind == "cheb" else gpsf.gaussian_rule(ch, n_radial)
    return gpsf.BallRule(radial, gpsf.angular_rule_from_count(0, m_angular))


X_POINT = np.array([0.9, 0.2])


class TestCriterion1ChebyshevC20:
    def test_table_value_row_pattern_and_runtime(self):
        t0 = time.perf_counter()
        val = gpsf.integrate_exponential(_disk_rule("cheb", 20.0, 14, 50), X_POINT, 20.0)
        ref = DISK_INTEGRAL_TABLE[20.0]
        rel = abs(val.real - ref) / abs(ref)
        exact = DISK_INTEGRAL_EXACT[20.0]
        row_ok = True
        details = []
        for n_radial, published_err in sorted(CHEB20_RADIAL_ERRORS.items()):
            v = gpsf.integrate_exponential(_disk_rule("cheb", 20.0, n_radial, 50), X_POINT, 20.0)
            ours = abs(v.real - exact) / abs(exact)
            if published_err > 1e-13:
                ok = published_err / 10.0 <= ours <= 10.0 * published_err
            else:  # round-off floor rows
                ok = ours <= 10.0 * published_err
            row_ok &= ok
            details.append(f"{n_radial}:{ours:.1e}")
        elapsed = time.perf_counter() - t0
        ok = rel <= 5e-13 and row_ok and elapsed <= 10.0
        report(
            "1",
            ok,
            f"cheb 14/50 rel={rel:.2e} (<=5e-13); rows {' '.join(details)} within one "
            f"order of published; runtime {elapsed:.1f}s (<=10s)",
        )
        assert rel <= 5e-13
        assert row_ok
        assert elapsed <= 10.0


class TestCriterion2GaussianC20:
    def test_ten_node_accuracy(self):
        val = gpsf.integrate_exponential(_disk_rule("gauss", 20.0, 10, 50), X_POINT, 20.0)
        exact = DISK_INTEGRAL_EXACT[20.0]
        rel = abs(val.real - exact) / abs(exact)
        ok = rel <= 1e-13
        report("2", ok, f"gauss 10/50 rel={rel:.2e} (<=1e-13)")
        assert ok


class TestCriterion3C100:
    def test_both_rules_and_runtime(self):
        t0 = time.perf_counter()
        cheb = gpsf.integrate_exponential(_disk_rule("cheb", 100.0, 40, 140), X_POINT, 100.0)
        ref = DISK_INTEGRAL_TABLE[100.0]
        rel_cheb = abs(cheb.real - ref) / abs(ref)
        gauss = gpsf.integrate_exponential(_disk_rule("gauss", 100.0, 24, 150), X_POINT, 100.0)
        exact = DISK_INTEGRAL_EXACT[100.0]
        rel_gauss = abs(gauss.real - exact) / abs(exact)
        elapsed = time.perf_counter() - t0
        ok = rel_cheb <= 1e-11 and rel_gauss <= 1e-11 and elapsed <= 60.0
        report(
            "3",
            ok,
            f"cheb 40/140 rel={rel_cheb:.2e}, gauss 24/150 rel={rel_gauss:.2e} "
            f"(<=1e-11); runtime {elapsed:.1f}s (<=60s)",
        )
        assert rel_cheb <= 1e-11
        assert rel_gauss <= 1e-11
        assert elapsed <= 60.0


class TestCriterion4InterpolationTables:
    def test_coefficient_tables(self):
        c = 50.0
        rule = gpsf.sampling_rule(0, c, radial_count=40, angular_count=140)
        samples = np.exp(1j * c * (rule.nodes() @ np.array([0.3, 0.4])))
        cache = ChannelCache(0, c, 29)
        wanted = [(N, 2, n) for N in (1, 10, 30) for n in range(30)]
        exp = gpsf.recover_coeffs(rule, samples, c, wanted, cache=cache)
        worst_big = 0.0
        worst_floor = 0.0
        for N in (1, 10, 30):
            for n in range(30):
                table = COEFF_TABLES[N][n]
                ours = math.sqrt(math.pi) * abs(exp.terms[(N, 2, n)])
                if table > 1e-12:
                    worst_big = max(worst_big, abs(ours - table))
                elif table < 1e-15:
                    worst_floor = max(worst_floor, ours)
        ok = worst_big <= 1e-9 and worst_floor <= 5e-15
        report(
            "4",
            ok,
            f"entries >1e-12 worst abs dev {worst_big:.2e} (<=1e-9); "
            f"floor rows worst value {worst_floor:.2e} (<=5e-15)",
        )
        assert worst_big <= 1e-9
        assert worst_floor <= 5e-15


def _check_curve(key, tol_rel=1e-10):
    p, c, N = key
    pts = LAMBDA_CURVES[key]
    chain = gpsf.beta_chain(ProlateChannel(p, c, N), len(pts) - 1)
    ok = True
    worst = 0.0
    for i, ref in enumerate(pts):
        if ref <= 1e-8:
            continue
        # the reference coordinates carry 16 decimal places; allow their
        # print-quantization half-ulp on top of the relative tolerance
        dev = abs(abs(chain[i].lam) - ref)
        worst = max(worst, dev / ref)
        if dev > tol_rel * ref + 0.6e-16:
            ok = False
    return ok, worst


class TestCriterion5FigureData:
    CLEAN = [(0, 100.0, 10), (0, 100.0, 25), (0, 100.0, 50), (0, 100.0, 80),
             (1, 50.0, 0), (1, 50.0, 10), (1, 50.0, 25), (1, 50.0, 40)]

    def test_clean_curves(self):
        worst_all = 0.0
        ok = True
        for key in self.CLEAN:
            good, worst = _check_curve(key)
            ok &= good
            worst_all = max(worst_all, worst)
        report(
            "5",
            ok,
            f"8 of 9 published curves reproduced, worst rel dev {worst_all:.2e} "
            f"(<=1e-10 + print quantization); see criterion 5b for the ninth",
        )
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="published (p=0, c=100, N=0) curve is corrupted at source: its values "
        "exceed the hard bound |lambda| <= 2 pi / c (mu < 1) from index ~19 on, and "
        "fail the defining integral equation; our values satisfy both (see ledger)",
    )
    def test_published_n0_c100_curve(self):
        good, worst = _check_curve((0, 100.0, 0))
        report(
            "5b",
            good,
            f"(p=0,c=100,N=0) published curve: worst rel dev {worst:.2e}; expected "
            f"failure - source data violates mu < 1",
        )
        assert good


class TestCriterion6SpectrumSum:
    def test_closed_forms(self):
        ok = True
        details = []
        for p, c in ((0, 20.0), (1, 10.0)):
            partial, closed = gpsf.mu_sum_check(p, c, int(c) + 40, int(c) + 40)
            rel = abs(partial - closed) / closed
            ok &= rel <= 1e-6
            details.append(f"p={p},c={c:g}: sum={partial:.9g} vs {closed:.9g} rel={rel:.1e}")
        report("6", ok, "; ".join(details) + " (<=1e-6)")
        assert ok


class TestCriterion7IntegralEquation:
    def test_residual_sweep(self):
        rr = np.arange(0.1, 0.95, 0.1)
        worst = 0.0
        for p in (0, 1):
            for N in range(6):
                modes = gpsf.solve_channel(ProlateChannel(p, 20.0, N), 10)
                for n in range(11):
                    mode = modes[n]
                    beta = gpsf.beta_direct(mode)
                    mu = gpsf.mu_from_beta(p, 20.0, beta)
                    phis = gpsf.eval_phi(mode, rr)
                    scale = float(np.max(np.abs(beta * phis)))
                    if mu > 1e-8:
                        images = [oracles.h_apply_quad(mode, float(r)) for r in rr]
                    else:
                        # float adaptive quadrature bottoms out above the
                        # criterion level here; use the extended-precision
                        # analytic Bessel image of the kernel instead
                        images = [float(oracles.h_apply_bessel_mp(mode, float(r))) for r in rr]
                    resid = float(np.max(np.abs(beta * phis - np.asarray(images)))) / scale
                    worst = max(worst, resid)
        ok = worst <= 1e-10
        report("7", ok, f"max relative residual {worst:.2e} over p in (0,1), N<=5, n<=10 (<=1e-10)")
        assert ok

    def test_oracles_cross_validate(self):
        # both oracle routes agree where the float one is trustworthy
        mode = gpsf.solve_channel(ProlateChannel(0, 20.0, 2), 3)[3]
        for r in (0.3, 0.7):
            a = oracles.h_apply_quad(mode, r)
            b = float(oracles.h_apply_bessel_mp(mode, r))
            assert a == pytest.approx(b, rel=1e-11)


class TestCriterion8PropertySuite:
    def test_orthonormality(self):
        x, w = oracles.gauss_legendre_01(400)
        modes = gpsf.solve_channel(ProlateChannel(0, 20.0, 0), 20)
        vals = np.vstack([gpsf.eval_phi(m, x) for m in modes])
        gram = (vals * (w * x)) @ vals.T
        dev = float(np.max(np.abs(gram - np.eye(len(modes)))))
        ok = dev <= 1e-11
        report("8a", ok, f"eigenfunction orthonormality dev {dev:.2e} (<=1e-11)")
        assert ok

    def test_roots(self):
        ok = True
        details = []
        for c, n in ((20.0, 14), (50.0, 24)):
            mode = gpsf.solve_channel(ProlateChannel(0, c, 0), n)[n]
            roots = gpsf.find_roots(mode)
            grid = np.linspace(1e-9, 1.0, 4 * n + 200)
            scale = np.max(np.abs(gpsf.eval_phi(mode, grid)))
            resid = float(np.max(np.abs(gpsf.eval_phi(mode, roots)))) / scale
            ok &= len(roots) == n and resid <= 1e-12
            details.append(f"c={c:g},n={n}: {len(roots)} roots resid {resid:.1e}")
        report("8b", ok, "; ".join(details) + " (<=1e-12 of max)")
        assert ok

    def test_gaussian_exactness(self):
        ch = ProlateChannel(0, 20.0, 0)
        rule = gpsf.gaussian_rule(ch, 10)
        modes = gpsf.solve_channel(ch, 19)
        mom = np.array([m.coeffs[0] for m in modes]) / math.sqrt(2.0)
        disc = np.array(
            [rule.integrate(gpsf.eval_phi(modes[k], rule.nodes)) - mom[k] for k in range(20)]
        )
        dev = float(np.max(np.abs(disc)) / np.max(np.abs(mom)))
        ok = dev <= 5e-14
        report("8c", ok, f"gauss rule 2n-mode exactness {dev:.2e} (<=5e-14)")
        assert ok

    def test_beta_derivative(self):
        c, dc = 20.0, 2e-3
        modes = gpsf.solve_channel(ProlateChannel(0, c, 0), 6)
        triple = gpsf.beta_chain(ProlateChannel(0, c, 0), 6, modes=modes)[6]
        dbeta, _ = gpsf.beta_dc(modes[6], triple)
        lo = gpsf.beta_chain(ProlateChannel(0, c - dc, 0), 6)[6].beta
        hi = gpsf.beta_chain(ProlateChannel(0, c + dc, 0), 6)[6].beta
        fd = (hi - lo) / (2.0 * dc)
        rel = abs(dbeta - fd) / abs(fd)
        ok = rel <= 1e-6
        report("8d", ok, f"d(beta)/dc vs finite difference rel {rel:.2e} (<=1e-6)")
        assert ok

    def test_zero_bandwidth_limits(self):
        mode = gpsf.solve_channel(ProlateChannel(0, 1e-3, 0), 0)[0]
        chi_dev = abs(mode.chi - 0.75)
        coef_dev = max(abs(mode.coeffs[0] - 1.0), float(np.max(np.abs(mode.coeffs[1:]))))
        ok = chi_dev <= 1e-5 and coef_dev <= 1e-5
        report("8e", ok, f"c->0: |chi-0.75|={chi_dev:.1e}, coeff dev {coef_dev:.1e} (<=1e-5)")
        assert ok

    def test_lambda_parity(self):
        ok = True
        for N in range(4):
            for t in gpsf.beta_chain(ProlateChannel(0, 10.0, N), 2):
                if N % 2 == 0:
                    ok &= t.lam.imag == 0.0
                else:
                    ok &= t.lam.real == 0.0
        report("8f", ok, "lambda real for even N, imaginary for odd N")
        assert ok


class TestCriterion9ChainConsistency:
    def test_direct_vs_chain(self):
        ch = ProlateChannel(0, 20.0, 0)
        modes = gpsf.solve_channel(ch, 25)
        chain = gpsf.beta_chain(ch, 25, modes=modes)
        worst = 0.0
        for t in chain:
            if t.mu >= 1e-18:
                d = gpsf.beta_direct(modes[t.mode.n])
                worst = max(worst, abs(t.beta - d) / abs(d))
        ok = worst <= 1e-11
        report("9", ok, f"direct-vs-chain worst rel dev {worst:.2e} down to mu=1e-18 (<=1e-11)")
        assert ok


class TestQualitativeTransitionGrowth:
    def test_mu_variance_grows_with_bandwidth(self):
        # the transition-region population Sum mu(1-mu) increases with
        # the band limit (checked qualitatively)
        totals = []
        for c in (10.0, 20.0, 40.0):
            total = 0.0
            for N in range(int(c) + 25):
                h = gpsf.harmonic_count(0, N)
                chain = gpsf.beta_chain(ProlateChannel(0, c, N), int(c) + 20, mu_stop=1e-12)
                s = sum(t.mu * (1.0 - t.mu) for t in chain)
                if s < 1e-12 and N > c / 2.0:
                    break
                total += h * s
            totals.append(total)
        ok = totals[0] < totals[1] < totals[2]
        report("10", ok, f"sum mu(1-mu) for c=10,20,40: {totals[0]:.3f} < {totals[1]:.3f} < {totals[2]:.3f}")
        assert ok


@pytest.fixture(scope="module", autouse=True)
def _precision():
    saved = mp.mp.dps
    mp.mp.dps = 30
    yield
    mp.mp.dps = saved

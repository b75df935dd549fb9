import math

import numpy as np
import pytest

import gpsf
from gpsf import kernels, quadrature
from gpsf.prolate import NumericalError, ProlateChannel


def _moments(channel, modes):
    return np.array([m.coeffs[0] for m in modes]) / math.sqrt(channel.p + 2.0)


class TestChebyshevRule:
    def test_matches_moments(self, channels):
        ch = ProlateChannel(0, 20.0, 0)
        rule = gpsf.chebyshev_rule(ch, 14)
        modes = channels(0, 20.0, 0, 14)
        mom = _moments(ch, modes[:14])
        for k in range(14):
            got = rule.integrate(gpsf.eval_phi(modes[k], rule.nodes))
            assert abs(got - mom[k]) <= 1e-13

    def test_nodes_are_roots(self, channels):
        ch = ProlateChannel(0, 20.0, 0)
        rule = gpsf.chebyshev_rule(ch, 14)
        mode = channels(0, 20.0, 0, 14)[14]
        assert np.max(np.abs(gpsf.eval_phi(mode, rule.nodes))) < 1e-11

    @pytest.mark.parametrize("p,c,n", [(0, 20.0, 14), (0, 10.0, 8), (1, 20.0, 10)])
    def test_weights_positive(self, p, c, n):
        rule = gpsf.chebyshev_rule(ProlateChannel(p, c, 0), n)
        assert np.all(rule.weights > 0.0)

    def test_rejects_nonzero_order(self):
        with pytest.raises(ValueError):
            gpsf.chebyshev_rule(ProlateChannel(0, 20.0, 2), 8)


class TestGaussianRule:
    def test_exactness_on_doubled_modes(self, channels):
        ch = ProlateChannel(0, 20.0, 0)
        rule = gpsf.gaussian_rule(ch, 10)
        modes = channels(0, 20.0, 0, 19)
        mom = _moments(ch, modes[:20])
        disc = np.array(
            [rule.integrate(gpsf.eval_phi(modes[k], rule.nodes)) - mom[k] for k in range(20)]
        )
        assert np.max(np.abs(disc)) <= 5e-14 * np.max(np.abs(mom))

    def test_half_node_count_at_equal_accuracy(self):
        # the 10-node Gauss-type rule does the work of the 14-node
        # interpolatory rule on the c=20 disk integral
        from golden import DISK_INTEGRAL_EXACT

        x = np.array([0.9, 0.2])
        exact = DISK_INTEGRAL_EXACT[20.0]
        for build, n in ((gpsf.gaussian_rule, 10), (gpsf.chebyshev_rule, 14)):
            rule = build(ProlateChannel(0, 20.0, 0), n)
            ball = gpsf.BallRule(rule, gpsf.angular_rule_from_count(0, 50))
            val = gpsf.integrate_exponential(ball, x, 20.0)
            assert abs(val.real - exact) / abs(exact) <= 1e-13

    def test_removing_a_node_breaks_exactness(self, channels):
        ch = ProlateChannel(0, 20.0, 0)
        rule = gpsf.gaussian_rule(ch, 10)
        modes = channels(0, 20.0, 0, 19)
        mom = _moments(ch, modes[:20])
        disc = []
        for k in range(20):
            vals = gpsf.eval_phi(modes[k], rule.nodes[:-1])
            disc.append(float(rule.weights[:-1] @ vals) - mom[k])
        assert np.max(np.abs(disc)) > 1e-6

    def test_nodes_inside_interval(self):
        rule = gpsf.gaussian_rule(ProlateChannel(0, 20.0, 0), 10)
        assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))
        assert np.all(rule.weights > 0.0)


def _rebuilding_gaussian_rule(channel, n):
    """Newton loop that evaluates every trial point with a plain basis and
    rebuilds (P, D) at the accepted point on the next sweep.  Tables stop at
    the last coefficient above 1e-20; at the round-off floor (max residual
    within 1e3 eps of the scale) only the full step is tried."""

    def table(modes, r, deriv=False):
        K = max(int(np.flatnonzero(np.abs(m.coeffs) > 1e-20)[-1]) + 1 for m in modes)
        A = np.vstack([m.coeffs[:K] for m in modes])
        ch = modes[0].channel
        if deriv:
            B, D = kernels.rbar_basis_with_deriv(ch.alpha, ch.N, K, r)
            return A @ B, A @ D
        return A @ kernels.rbar_basis(ch.alpha, ch.N, K, r)

    start = gpsf.chebyshev_rule(ProlateChannel(channel.p, channel.c / 2.0, 0), n)
    r, w = start.nodes.copy(), start.weights.copy()
    modes = gpsf.solve_channel(channel, 2 * n - 1)
    mom = _moments(channel, modes)
    scale = max(float(np.max(np.abs(mom))), 1e-12)
    d = mom - table(modes, r) @ w
    for _ in range(60):
        dnorm = float(np.linalg.norm(d))
        dmax = float(np.max(np.abs(d)))
        if dmax <= 20.0 * np.finfo(float).eps * scale:
            break
        P, D = table(modes, r, deriv=True)
        x = np.linalg.solve(np.hstack([D * w[None, :], P]), d)
        step = 1.0
        for _ in range(1 if dmax <= 1e3 * np.finfo(float).eps * scale else 40):
            rn, wn = r + step * x[:n], w + step * x[n:]
            dn = mom - table(modes, rn) @ wn
            if float(np.linalg.norm(dn)) < dnorm:
                r, w, d = rn, wn, dn
                break
            step /= 2.0
        else:
            break
    order = np.argsort(r)
    return r[order], w[order]


class TestGaussianNewtonTables:
    # (0, 150, 34) and (1, 50, 18) reach the round-off floor before the
    # 20 eps stopping tolerance
    @pytest.mark.parametrize("p,c,n", [(0, 20.0, 14), (1, 50.0, 18), (0, 150.0, 34)])
    def test_rule_unchanged_and_fewer_builds(self, monkeypatch, p, c, n):
        ch = ProlateChannel(p, c, 0)
        calls = []

        def counted(real):
            def call(*a):
                calls.append(a)
                return real(*a)

            return call

        for name in ("rbar_basis", "rbar_basis_with_deriv"):
            monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
        ref_nodes, ref_weights = _rebuilding_gaussian_rule(ch, n)
        ref_builds = len(calls)
        calls.clear()
        rule = quadrature.gaussian_rule(ch, n)
        assert np.array_equal(rule.nodes, ref_nodes)
        assert np.array_equal(rule.weights, ref_weights)
        assert len(calls) < ref_builds


def _gauss_tables(monkeypatch, n):
    """Record the ``deriv`` flag of every table of the 2n Gauss modes."""
    flags = []
    real = quadrature.tabulate

    def counted(modes, r, deriv=False):
        if len(modes) == 2 * n:
            flags.append(deriv)
        return real(modes, r, deriv)

    monkeypatch.setattr(quadrature, "tabulate", counted)
    return flags


class TestGaussianStopping:
    def test_no_halved_step_at_the_floor(self, monkeypatch):
        # this rule used to end on a sweep of 39 failed halved steps
        flags = _gauss_tables(monkeypatch, 18)
        gpsf.gaussian_rule(ProlateChannel(1, 50.0, 0), 18)
        assert flags and all(flags)

    def test_stagnation_above_the_floor_halves_then_raises(self, monkeypatch):
        # an uphill Newton direction: the full step and 39 halvings fail
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda J, d: -real(J, d))
        flags = _gauss_tables(monkeypatch, 10)
        with pytest.raises(NumericalError, match="stagnated"):
            gpsf.gaussian_rule(ProlateChannel(0, 20.0, 0), 10)
        assert flags == [True, True] + [False] * 39

import json
import math

import numpy as np
import pytest

import gpsf
from gpsf import ballquad, cli, interp, kernels, prolate
from gpsf.ballquad import surface_harmonic
from gpsf.interp import ChannelCache
from gpsf.prolate import ProlateChannel

from golden import COEFF_TABLES


def _rule(p, c, radial, angular):
    return gpsf.sampling_rule(p, c, radial_count=radial, angular_count=angular)


def _exp_samples(rule, x, c):
    return np.exp(1j * c * (rule.nodes() @ np.asarray(x, dtype=float)))


def _mode_samples(rule, cache, N, ell, n):
    pts = rule.nodes()
    rr = np.linalg.norm(pts, axis=1)
    phi = gpsf.eval_phi(cache.modes(N)[n], rr)
    with np.errstate(invalid="ignore"):
        unit = np.where(rr[:, None] > 0.0, pts / rr[:, None], 0.0)
    return phi * surface_harmonic(rule.radial.channel.p, N, ell, unit)


class TestRecoverCoeffs:
    def test_eigenfunction_recovers_unit_coefficient(self):
        c = 10.0
        rule = _rule(0, c, 14, 40)
        cache = ChannelCache(0, c, 4)
        samples = _mode_samples(rule, cache, 2, 1, 1)
        modes = [(N, ell, n) for N in range(4) for ell in ((1,) if N == 0 else (1, 2))
                 for n in range(3)]
        exp = gpsf.recover_coeffs(rule, samples, c, modes, cache=cache)
        for key, coeff in exp.terms.items():
            if key == (2, 1, 1):
                assert coeff.real == pytest.approx(1.0, abs=1e-12)
                assert abs(coeff.imag) < 1e-12
            else:
                assert abs(coeff) < 1e-12

    @pytest.mark.parametrize("p", [-1, 1])
    def test_eigenfunction_recovery_other_dimensions(self, p):
        c = 8.0
        rule = _rule(p, c, 12, 20 if p == 1 else 2)
        cache = ChannelCache(p, c, 3)
        key = (1, 1, 1)
        samples = _mode_samples(rule, cache, *key)
        modes = [(N, ell, n) for N in range(2) for ell in range(1, gpsf.harmonic_count(p, N) + 1)
                 for n in range(3)]
        exp = gpsf.recover_coeffs(rule, samples, c, modes, cache=cache)
        for k, coeff in exp.terms.items():
            if k == key:
                assert coeff.real == pytest.approx(1.0, abs=1e-11)
            else:
                assert abs(coeff) < 1e-11

    def test_fft_and_naive_routes_agree(self):
        c = 10.0
        rule = _rule(0, c, 14, 40)
        samples = _exp_samples(rule, [0.3, 0.4], c)
        modes = [(N, ell, n) for N in (0, 1, 3) for ell in ((1,) if N == 0 else (1, 2))
                 for n in range(4)]
        cache = ChannelCache(0, c, 4)
        a = gpsf.recover_coeffs(rule, samples, c, modes, cache=cache)
        b = _per_term_reference(rule, samples, cache, modes, fft=False)  # sums over the nodes
        for key in a.terms:
            assert abs(a.terms[key] - b[key]) < 1e-13

    def test_band_limit_mismatch_rejected(self):
        rule = _rule(0, 10.0, 10, 30)
        with pytest.raises(ValueError):
            gpsf.recover_coeffs(rule, np.zeros(rule.count), 9.0, [(0, 1, 0)])

    def test_coefficient_table_spot_values(self):
        # sin-harmonic projections of e^(ic<x,t>), x=(0.3,0.4), c=50:
        # magnitude on the raw sin(N theta) equals sqrt(pi) times the
        # coefficient on the orthonormal harmonic
        c = 50.0
        rule = _rule(0, c, 40, 140)
        samples = _exp_samples(rule, [0.3, 0.4], c)
        wanted = [(1, 2, 3), (10, 2, 0), (30, 2, 5)]
        cache = ChannelCache(0, c, 6)
        exp = gpsf.recover_coeffs(rule, samples, c, wanted, cache=cache)
        for (N, ell, n) in wanted:
            got = math.sqrt(math.pi) * abs(exp.terms[(N, ell, n)])
            assert got == pytest.approx(COEFF_TABLES[N][n], abs=1e-10)

    def test_parity_structure(self):
        # coefficients of even angular orders are real, odd imaginary
        c = 10.0
        rule = _rule(0, c, 14, 40)
        samples = _exp_samples(rule, [0.3, 0.4], c)
        modes = [(N, 1, 0) for N in range(4)]
        exp = gpsf.recover_coeffs(rule, samples, c, modes, cache=ChannelCache(0, c, 1))
        for (N, _, _), coeff in exp.terms.items():
            if abs(coeff) < 1e-13:
                continue
            if N % 2 == 0:
                assert abs(coeff.imag) < 1e-12 * abs(coeff.real)
            else:
                assert abs(coeff.real) < 1e-12 * abs(coeff.imag)

    def test_unreliable_flagging(self):
        c = 10.0
        rule = _rule(0, c, 14, 40)
        samples = _exp_samples(rule, [0.3, 0.4], c)
        exp = gpsf.recover_coeffs(rule, samples, c, [(0, 1, 0), (0, 1, 30)],
                                  cache=ChannelCache(0, c, 30))
        assert (0, 1, 0) not in exp.unreliable
        assert (0, 1, 30) in exp.unreliable


class TestSynthesize:
    def test_single_term_at_origin(self):
        c = 10.0
        cache = ChannelCache(0, c, 0)
        exp = gpsf.GpsfExpansion(0, c, {(0, 1, 0): 2.0 + 0.0j})
        val = gpsf.synthesize(exp, [0.0, 0.0], cache=cache)
        phi0 = gpsf.eval_phi(cache.modes(0)[0], 0.0)
        assert val == pytest.approx(2.0 * phi0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_round_trip_exponential(self):
        # recover then synthesize: error at the eigenvalue-cutoff level
        c = 20.0
        x = np.array([0.3, 0.4])
        rule = _rule(0, c, 24, 80)
        samples = _exp_samples(rule, x, c)
        Nmax, nmax = 34, 18
        cache = ChannelCache(0, c, nmax)
        modes = []
        for N in range(Nmax + 1):
            lam_ok = [t for t in cache.triples(N) if abs(t.lam) > 1e-14]
            if not lam_ok:
                break
            for ell in (1,) if N == 0 else (1, 2):
                modes.extend((N, ell, t.mode.n) for t in lam_ok)
        exp = gpsf.recover_coeffs(rule, samples, c, modes, cache=cache)
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = rng.uniform(-0.7, 0.7, size=2)
            got = gpsf.synthesize(exp, t, cache=cache)
            ref = np.exp(1j * c * float(x @ t))
            assert abs(got - ref) <= 1e-10

    def test_outside_ball_rejected(self):
        exp = gpsf.GpsfExpansion(0, 10.0, {(0, 1, 0): 1.0 + 0.0j})
        with pytest.raises(ValueError):
            gpsf.synthesize(exp, [1.2, 0.0])


# (p, c) of the benchmark's recovery pipelines, with the radial count and the
# angular count m of their default sampling rules (m = 4 on the interval,
# where the angular rule is the two endpoints whatever m is)
RECOVER_RULES = [
    (-1, 10.0, 18, 4), (-1, 25.0, 24, 4), (-1, 40.0, 29, 4),
    (0, 4.0, 15, 44), (0, 8.0, 17, 68), (0, 12.0, 19, 92),
    (1, 1.0, 13, 22), (1, 2.0, 14, 30),
]


def _linear_angular_count(p, c2, target=1e-15):
    """The angular count by linear search over even m, capped at 10000."""
    m = 4
    while gpsf.truncation_bound(p, c2, max(m // 2, 1)) > target and m < 10000:
        m += 2
    return m


class TestSamplingRuleSizes:
    @pytest.mark.parametrize("p, c, radial, angular", RECOVER_RULES)
    def test_recover_rule_counts(self, p, c, radial, angular):
        rule = gpsf.sampling_rule(p, c)
        assert len(rule.radial.nodes) == radial
        assert interp._angular_count(p, 2.0 * c, 1e-15) == angular
        assert rule.angular.count == gpsf.angular_node_count(p, angular)

    @pytest.mark.parametrize("p, c", [(p, c) for p, c, _, _ in RECOVER_RULES]
                             + [(p, c) for p in (-1, 0, 1) for c in (50.0, 200.0)])
    def test_bisection_matches_linear_search(self, p, c):
        assert interp._angular_count(p, 2.0 * c, 1e-15) == _linear_angular_count(p, 2.0 * c)

    @pytest.mark.parametrize("p, c, angular",
                             [(p, c, m) for p in (0, 1) for c, m in ((400.0, 2202), (1000.0, 5464))])
    def test_count_where_low_degree_bounds_overflow(self, p, c, angular):
        # from c of about 379 the bounds at the first degrees of the search exceed the float range
        assert interp._angular_count(p, 2.0 * c, 1e-15) == angular
        assert gpsf.truncation_bound(p, 2.0 * c, angular // 2) <= 1e-15
        assert gpsf.truncation_bound(p, 2.0 * c, angular // 2 - 1) > 1e-15

    @pytest.mark.parametrize("c", [1900.0, 2500.0])
    def test_count_past_the_cap_raises(self, monkeypatch, c):
        # at c=1900 the bound at degree 5000 is 5.1e136, at c >= 2000 it is inf: no rule is built
        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the request was checked")

        for name in ("beta_chain", "gaussian_rule", "angular_rule_from_count"):
            monkeypatch.setattr(interp, name, no_compute)
        with pytest.raises(ValueError, match=f"c={c:g} needs an angular count above 10000"):
            gpsf.sampling_rule(0, c)


# (p, c, radial count, angular count, Nmax, nmax, fft): recovery takes its angular
# sums from one separable transform in every dimension; fft picks the per-term
# reference's route on the disk (the disk's FFT bins or the sum over the nodes),
# so that the transform is checked against both
TABULATION_CASES = [
    (-1, 8.0, 12, 2, 1, 6, False),
    (0, 10.0, 14, 40, 5, 6, True),
    (0, 10.0, 14, 40, 5, 6, False),
    (1, 3.0, 10, 16, 4, 3, False),
]


def _grid(p, Nmax, nmax):
    return [(N, ell, n) for N in range(Nmax + 1) for ell in range(1, gpsf.harmonic_count(p, N) + 1)
            for n in range(nmax + 1)]


def _per_term_reference(rule, samples, cache, modes, fft):
    """The per-term loop: one eval_phi at the radial nodes and one angular sum per term."""
    p = rule.radial.channel.p
    m = rule.angular.count
    F = samples.reshape(len(rule.radial.nodes), m)
    G = np.fft.fft(F, axis=1) * (2.0 * math.pi / m)
    ref = {}
    for N, ell, n in modes:
        phi = gpsf.eval_phi(cache.modes(N)[n], rule.radial.nodes)
        if p == 0 and fft:
            if N == 0:
                ang = G[:, 0] / math.sqrt(2.0 * math.pi)
            elif ell == 1:
                ang = 0.5 * (G[:, N] + G[:, -N % m]) / math.sqrt(math.pi)
            else:
                ang = 0.5j * (G[:, N] - G[:, -N % m]) / math.sqrt(math.pi)
        else:
            ang = F @ (rule.angular.weights * surface_harmonic(p, N, ell, rule.angular.points))
        ref[(N, ell, n)] = complex(np.sum(rule.radial.weights * phi * ang))
    return ref


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def tabulation_runs():
    """Rule, samples, warm cache and mode grid for each TABULATION_CASES entry."""
    runs = []
    for p, c, radial, angular, Nmax, nmax, fft in TABULATION_CASES:
        rule = _rule(p, c, radial, angular)
        cache = ChannelCache(p, c, nmax)
        modes = _grid(p, Nmax, nmax)
        for N in {N for N, _, _ in modes}:
            cache.triples(N)
        x = 0.6 * np.ones(p + 2) / math.sqrt(p + 2)
        runs.append((rule, _exp_samples(rule, x, c), c, cache, modes, fft))
    return runs


class TestChannelTabulation:
    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_one_basis_build_per_channel(self, tabulation_runs, monkeypatch, case):
        # one build for every order, one channel per order, each with the radial nodes as its row
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        calls = _counting(monkeypatch, kernels, "rbar_basis")
        interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        orders = sorted({N for N, _, _ in modes})
        assert len(calls) == 1
        _, N, _, r = calls[0]
        assert list(N) == orders
        assert np.array_equal(r, np.broadcast_to(rule.radial.nodes, (len(orders), len(rule.radial.nodes))))

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_coefficients_match_per_term_loop(self, tabulation_runs, case):
        rule, samples, c, cache, modes, fft = tabulation_runs[case]
        got = interp.recover_coeffs(rule, samples, c, modes, cache=cache).terms
        ref = _per_term_reference(rule, samples, cache, modes, fft)
        assert list(got) == list(ref)
        scale = max(abs(v) for v in ref.values())
        assert max(abs(got[k] - ref[k]) for k in ref) <= 4e-15 * scale

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_synthesis_matches_per_term_sum(self, tabulation_runs, case):
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        exp = interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        p = exp.p
        rng = np.random.default_rng(case)
        for y in [np.zeros(p + 2)] + [rng.uniform(-0.5, 0.5, size=p + 2) for _ in range(3)]:
            r = float(np.linalg.norm(y))
            yhat = y / r if r > 0.0 else np.eye(p + 2)[0]
            ref = 0.0 + 0.0j
            for (N, ell, n), a in sorted(exp.terms.items()):
                s = float(surface_harmonic(p, N, ell, yhat[None, :])[0])
                ref += a * gpsf.eval_phi(cache.modes(N)[n], r) * s
            got = interp.synthesize(exp, y, cache=cache)
            assert abs(got - ref) <= 4e-15 * sum(abs(a) for a in exp.terms.values())

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_unreliable_modes_match_per_term_rule(self, tabulation_runs, case):
        # per term: past the end of the chain, or |lambda| below the floor; the chain is
        # also cut to three modes, as a truncated chain would be
        rule, samples, c, cache, modes, _ = tabulation_runs[case]

        class ShortChains(ChannelCache):
            def triples(self, N):
                return super().triples(N)[:3]

        short = ShortChains(cache.p, cache.c, cache.nmax)
        for cache_ in (cache, short):
            got = interp.recover_coeffs(rule, samples, c, modes, cache=cache_).unreliable
            ref = {(N, ell, n) for N, ell, n in modes
                   if n >= len(cache_.triples(N)) or abs(cache_.triples(N)[n].lam) < interp._RELIABLE_FLOOR}
            assert got == ref
        assert any(n >= 3 for _, _, n in got)

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_many_points_match_one_point_calls(self, tabulation_runs, monkeypatch, case):
        # an (m, p + 2) array of points: one basis build and one harmonic table per order
        # for all of them.  Its products round apart from m one-point calls (one matrix
        # product against m vector products), within 4e-16 of each point's sum of |term|
        # here; the bound is 1e-15 of it
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        exp = interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        p = exp.p
        rng = np.random.default_rng(10 + case)
        points = np.vstack([np.zeros(p + 2), np.eye(p + 2)[-1], rng.uniform(-0.55, 0.55, (9, p + 2))])
        builds = _counting(monkeypatch, kernels, "rbar_basis")
        tables = _counting(monkeypatch, interp, "surface_harmonics")
        got = interp.synthesize(exp, points, cache=cache)
        assert len(builds) == 1
        assert sorted(a[1] for a in tables) == sorted({N for N, _, _ in exp.terms})
        assert got.shape == (len(points),) and got.dtype == complex
        for y, value in zip(points, got):
            r = float(np.linalg.norm(y))
            yhat = y / r if r > 0.0 else np.eye(p + 2)[0]
            size = sum(abs(a * gpsf.eval_phi(cache.modes(N)[n], r)
                           * float(surface_harmonic(p, N, ell, yhat[None, :])[0]))
                       for (N, ell, n), a in exp.terms.items())
            assert abs(value - interp.synthesize(exp, y, cache=cache)) <= 1e-15 * size
        assert interp.synthesize(exp, points[2:3], cache=cache).shape == (1,)
        assert interp.synthesize(exp, points[:0], cache=cache).shape == (0,)

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_one_harmonic_per_order_and_index(self, tabulation_runs, monkeypatch, case):
        # recovery takes one polar-factor table per order N, at the rule's polar
        # nodes, and no harmonic at the angular nodes; synthesis one harmonic
        # table per order N, whose polar factors come from one table
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        polar = _counting(monkeypatch, ballquad, "_polar_factors")
        tables = _counting(monkeypatch, interp, "surface_harmonics")
        exp = interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        orders = sorted({N for N, _, _ in modes})
        assert sorted(a[1] for a in polar) == orders
        assert all(np.array_equal(a[2], rule.angular.polar) for a in polar)
        assert tables == []
        polar.clear()
        interp.synthesize(exp, np.full(exp.p + 2, 0.2), cache=cache)
        assert sorted(a[1] for a in tables) == orders
        assert sorted(a[1] for a in polar) == orders


class TestOneBasisPassPerChannel:
    """Recovery weights each channel's table once and sums every n of an (N, ell)
    pair in one array sum; synthesis tabulates every channel from one basis build."""

    @staticmethod
    def _per_term(rule, samples, cache, modes):
        # one np.sum per term over the channel table and the angular projections
        F = samples.reshape(len(rule.radial.nodes), rule.angular.count)
        proj = rule.angular.projections(F, sorted({N for N, _, _ in modes}))
        ref = {}
        for N in sorted(proj):
            phi = prolate.tabulate(cache.modes(N), rule.radial.nodes)
            for _, ell, n in [m for m in modes if m[0] == N]:
                ref[(N, ell, n)] = complex(np.sum(rule.radial.weights * phi[n] * proj[N][ell - 1]))
        return ref

    # every n of each (N, ell) pair, or every other n: the rows picked from the
    # channel table keep their bits
    @pytest.mark.parametrize("all_n", [True, False])
    @pytest.mark.parametrize("case", [0, 1, 3])  # p = -1, 0, 1
    def test_terms_bit_identical_to_per_term_sums(self, tabulation_runs, case, all_n):
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        modes = modes if all_n else [m for m in modes if m[2] % 2 == 1]
        got = interp.recover_coeffs(rule, samples, c, modes, cache=cache).terms
        ref = self._per_term(rule, samples, cache, modes)
        assert list(got) == list(ref)
        assert all(got[k] == ref[k] for k in ref)

    def test_terms_keep_the_request_order(self, tabulation_runs):
        rule, samples, c, cache, _, _ = tabulation_runs[1]
        modes = [(3, 2, 1), (0, 1, 4), (3, 1, 0), (3, 2, 0), (0, 1, 2)]
        got = interp.recover_coeffs(rule, samples, c, modes, cache=cache).terms
        assert list(got) == [(0, 1, 4), (0, 1, 2), (3, 2, 1), (3, 1, 0), (3, 2, 0)]
        ref = self._per_term(rule, samples, cache, modes)
        assert all(got[k] == ref[k] for k in ref)

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_one_harmonic_count_per_order(self, tabulation_runs, monkeypatch, case):
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        calls = _counting(monkeypatch, interp, "harmonic_count")
        interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        assert sorted(a[1] for a in calls) == sorted({N for N, _, _ in modes})

    @pytest.mark.parametrize("case", range(len(TABULATION_CASES)))
    def test_synthesis_builds_one_basis_per_channel(self, tabulation_runs, monkeypatch, case):
        rule, samples, c, cache, modes, _ = tabulation_runs[case]
        exp = interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        builds = _counting(monkeypatch, kernels, "rbar_basis")
        y = np.full(exp.p + 2, 0.35)
        got = interp.synthesize(exp, y, cache=cache)
        # one build, one channel per order, each with the one radius |y|
        orders = sorted({N for N, _, _ in exp.terms})
        r = float(np.linalg.norm(y))
        assert len(builds) == 1
        assert list(builds[0][1]) == orders
        assert np.array_equal(builds[0][3], np.full((len(orders), 1), r))
        ref = 0.0 + 0.0j
        for (N, ell, n), a in sorted(exp.terms.items()):
            s = float(surface_harmonic(exp.p, N, ell, (y / r)[None, :])[0])
            ref += a * gpsf.eval_phi(cache.modes(N)[n], r) * s
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_synthesis_skips_zero_coefficients(self, tabulation_runs, monkeypatch):
        rule, samples, c, cache, modes, _ = tabulation_runs[1]
        exp = interp.recover_coeffs(rule, samples, c, modes, cache=cache)
        kept = {k: (v if k[0] == 2 else 0.0j) for k, v in exp.terms.items()}
        builds = _counting(monkeypatch, kernels, "rbar_basis")
        got = interp.synthesize(gpsf.GpsfExpansion(exp.p, c, kept), [0.2, -0.1], cache=cache)
        assert [list(a[1]) for a in builds] == [[2]]
        assert got == interp.synthesize(
            gpsf.GpsfExpansion(exp.p, c, {k: v for k, v in kept.items() if v != 0.0}), [0.2, -0.1],
            cache=cache)


class TestRequestValidation:
    """Malformed requests raise a one-line ValueError before any radial work."""

    @pytest.fixture
    def no_compute(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("compute started before validation")

        # tabulate_channels is recovery's and synthesis's one radial evaluation
        monkeypatch.setattr(interp, "solve_channel", refuse)
        monkeypatch.setattr(interp, "tabulate_channels", refuse)

    @pytest.fixture(scope="class")
    def disk_rule(self):
        return _rule(0, 4.0, 10, 30)

    def _rejects(self, call, match):
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert "\n" not in str(info.value)

    def test_empty_mode_list(self, disk_rule, no_compute):
        self._rejects(lambda: gpsf.recover_coeffs(disk_rule, np.zeros(disk_rule.count), 4.0, []),
                      "no modes")

    def test_harmonic_index_out_of_range(self, disk_rule, no_compute):
        # N=0 on the disk has the one harmonic ell=1
        self._rejects(lambda: gpsf.recover_coeffs(disk_rule, np.zeros(disk_rule.count), 4.0,
                                                  [(0, 2, 0)]), "ell must lie in 1..1")

    def test_cache_band_limit_differs(self, disk_rule, no_compute):
        self._rejects(lambda: gpsf.recover_coeffs(disk_rule, np.zeros(disk_rule.count), 4.0,
                                                  [(0, 1, 0)], cache=ChannelCache(0, 5.0, 7)),
                      "channel cache is for p=0, c=5.0")

    def test_cache_dimension_differs(self, disk_rule, no_compute):
        self._rejects(lambda: gpsf.recover_coeffs(disk_rule, np.zeros(disk_rule.count), 4.0,
                                                  [(0, 1, 0)], cache=ChannelCache(1, 4.0, 7)),
                      "channel cache is for p=1")

    def test_mode_above_cache_nmax(self, disk_rule, no_compute):
        self._rejects(lambda: gpsf.recover_coeffs(disk_rule, np.zeros(disk_rule.count), 4.0,
                                                  [(0, 1, 8)], cache=ChannelCache(0, 4.0, 7)),
                      "exceeds the channel cache's nmax=7")

    def test_disk_order_past_the_angular_rule(self, disk_rule, no_compute):
        # 30 angles separate the harmonics of orders up to 14
        self._rejects(lambda: gpsf.recover_coeffs(disk_rule, np.zeros(disk_rule.count), 4.0,
                                                  [(0, 1, 0), (15, 2, 0)]),
                      "angular rule with 30 nodes cannot separate order 15 harmonics")

    # an (m, p + 2) array is m points; a (1, 3) array on the disk, or three axes, is refused
    @pytest.mark.parametrize("p, x", [(0, [0.1, 0.2, 0.3]), (0, [0.1]), (0, [[0.1, 0.2, 0.3]]),
                                      (1, [0.1, 0.2]), (-1, [0.1, 0.2]), (0, [[[0.1, 0.2]]]),
                                      (0, 0.1)])
    def test_synthesize_point_of_wrong_shape(self, p, x, no_compute):
        exp = gpsf.GpsfExpansion(p, 4.0, {(0, 1, 0): 1.0 + 0.0j})
        self._rejects(lambda: gpsf.synthesize(exp, x), f"point must have {p + 2} coordinates")

    @pytest.mark.parametrize("x", [[math.nan, 0.2], [math.inf, 0.0], [0.1, -math.inf],
                                   [[0.1, 0.2], [math.nan, 0.0]]])
    def test_synthesize_non_finite_point(self, x, no_compute):
        # a NaN norm passes the ball check, so finiteness is checked on its own
        exp = gpsf.GpsfExpansion(0, 4.0, {(0, 1, 0): 1.0 + 0.0j})
        self._rejects(lambda: gpsf.synthesize(exp, x), "finite")

    def test_synthesize_zero_coefficients(self, no_compute):
        # every coefficient zero: zero at every point, with no solve and no basis build
        exp = gpsf.GpsfExpansion(0, 4.0, {(0, 1, 0): 0.0j, (2, 2, 1): 0.0})
        value = gpsf.synthesize(exp, [0.1, 0.2])
        assert type(value) is complex and value == 0j
        values = gpsf.synthesize(exp, np.full((3, 2), 0.3))
        assert values.dtype == complex and values.tolist() == [0j] * 3

    def test_synthesize_empty_expansion(self, no_compute):
        self._rejects(lambda: gpsf.synthesize(gpsf.GpsfExpansion(0, 4.0, {}), [0.1, 0.2]),
                      "no terms")

    @pytest.mark.parametrize("cache", [ChannelCache(0, 5.0, 3), ChannelCache(1, 4.0, 3),
                                       ChannelCache(0, 4.0, 1)])
    def test_synthesize_cache_mismatch(self, cache, no_compute):
        exp = gpsf.GpsfExpansion(0, 4.0, {(1, 2, 2): 1.0 + 0.0j})
        self._rejects(lambda: gpsf.synthesize(exp, [0.1, 0.2], cache=cache), "channel cache")


class TestCoeffBound:
    def test_zero_eigenvalue(self):
        t = gpsf.EigenTriple(0.0, 0.0j, 0.0, gpsf.RadialModeId(0, 0, 0))
        assert gpsf.coeff_bound(3.0, t) == 0.0

    def test_monotone_in_eigenvalue(self):
        chain = gpsf.beta_chain(ProlateChannel(0, 20.0, 0), 8)
        bounds = [gpsf.coeff_bound(1.0, t) for t in chain]
        assert np.all(np.diff(bounds) <= 0.0)

    def test_table_values_below_bound(self):
        # observed high-order coefficients sit below |lambda| times the
        # L2 mass of the generating density
        c = 50.0
        chain = gpsf.beta_chain(ProlateChannel(0, c, 30), 15)
        sigma_l2 = math.sqrt(math.pi)  # unit-modulus density over the disk
        for n in range(14):
            assert COEFF_TABLES[30][n] <= math.sqrt(math.pi) * gpsf.coeff_bound(
                sigma_l2, chain[n]
            ) + 1e-14


class TestExport:
    def test_json_round_trip_fields(self, capsys):
        # interp --format json writes {p, c, modes: [{N, l, n, re, im}]}, sorted, exactly
        args = ["interp", "--p", "0", "--c", "10", "--x", "0.3,0.4", "--Nmax", "1", "--nmax", "2",
                "--radial-count", "12", "--angular-count", "40", "--format", "json"]
        assert cli.main(args) == 0
        d = json.loads(capsys.readouterr().out)
        modes = [(N, ell, n) for N in range(2) for ell in range(1, 1 + min(N + 1, 2))
                 for n in range(3)]
        rule = _rule(0, 10.0, 12, 40)
        exp = gpsf.recover_coeffs(rule, np.exp(1j * 10.0 * (rule.nodes() @ [0.3, 0.4])), 10.0, modes)
        assert d["p"] == 0 and d["c"] == 10.0
        assert d["modes"] == [{"N": N, "l": ell, "n": n, "re": a.real, "im": a.imag}
                              for (N, ell, n), a in sorted(exp.terms.items())]


class TestSamplingRuleSizeGuard:
    @staticmethod
    def _no_compute(monkeypatch):
        from gpsf import prolate, spectrum

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the rule size was checked")

        for module in (prolate, spectrum):
            monkeypatch.setattr(module, "solve_channel", no_compute)
        for name in ("gaussian_rule", "angular_rule_from_count"):
            monkeypatch.setattr(interp, name, no_compute)

    @pytest.mark.parametrize("p, c, radial, angular", [
        (1, 400.0, None, None),   # 2202 x 1101 angular nodes, times at least 11 radial
        (0, 10.0, 1000, 5000),
        (1, 10.0, 20, 1000),
    ])
    def test_refused_before_any_solve(self, monkeypatch, p, c, radial, angular):
        self._no_compute(monkeypatch)
        with pytest.raises(ValueError, match="above the limit of 4000000"):
            gpsf.sampling_rule(p, c, radial_count=radial, angular_count=angular)

    def test_refused_once_the_radial_count_is_known(self, monkeypatch):
        # 11 x 300000 nodes pass the first check, and the angular rule is built (here a
        # stand-in); the chain's 200 modes give 110 radial nodes
        self._no_compute(monkeypatch)
        built = []
        monkeypatch.setattr(interp, "angular_rule_from_count", lambda p, m: built.append(m))
        monkeypatch.setattr(interp, "beta_chain", lambda *a, **k: [None] * 200)
        with pytest.raises(ValueError, match="110 radial, angular count 300000"):
            gpsf.sampling_rule(0, 10.0, angular_count=300000)
        assert built == [300000]

    def test_limit_is_inclusive(self):
        gpsf.ballquad.check_node_count("rule", 0, 400, 10000)
        with pytest.raises(ValueError):
            gpsf.ballquad.check_node_count("rule", 0, 400, 10001)

    @pytest.mark.parametrize("p, m", [(-1, 7), (0, 1), (0, 40), (1, 1), (1, 30), (1, 31)])
    def test_node_count_matches_the_built_rule(self, p, m):
        assert gpsf.angular_node_count(p, m) == gpsf.angular_rule_from_count(p, m).count

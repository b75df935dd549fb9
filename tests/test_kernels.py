import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpsf
from gpsf import kernels
from gpsf.prolate import ProlateChannel, ZernikeCoeffs

from oracles import phi_mp, rbar_basis_mp

RADII = (0.0, 1e-6, 0.3, 0.77, 1.0)


def _solved(p, c, N, n):
    return gpsf.solve_channel(ProlateChannel(p, c, N), n)[n]


ORACLE_MODES = {
    "p=-1,N=0": lambda: _solved(-1, 20.0, 0, 3),
    "p=-1,N=1": lambda: _solved(-1, 20.0, 1, 6),
    "N>>c": lambda: _solved(0, 5.0, 40, 2),
    "c=150": lambda: _solved(0, 150.0, 0, 30),
    "p=1": lambda: _solved(1, 50.0, 3, 8),
    "K=1": lambda: ZernikeCoeffs(ProlateChannel(1, 3.0, 2), 0, 0.0, np.array([1.0])),
    "K=2": lambda: ZernikeCoeffs(ProlateChannel(0, 3.0, 1), 0, 0.0, np.array([0.6, -0.8])),
}


def _grid_max(fn, mode):
    return float(np.max(np.abs(fn(mode, np.linspace(0.0, 1.0, 401)))))


class TestFusedAgainstOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODES))
    def test_value_and_derivative(self, name):
        # (Phi, Phi') at one radius against the 40-digit series and its
        # numerical derivative, relative to the largest |Phi|, |Phi'| on [0, 1]
        mode = ORACLE_MODES[name]()
        fmax = _grid_max(gpsf.eval_phi, mode)
        dmax = _grid_max(gpsf.eval_phi_deriv, mode)
        for r in RADII:
            f, df = gpsf.eval_phi_and_deriv(mode, r)
            f_ref = phi_mp(mode, r)
            df_ref = mp.diff(lambda t: phi_mp(mode, t), mp.mpf(r))
            assert abs(f - float(f_ref)) <= 1e-13 * fmax, (name, r)
            assert abs(df - float(df_ref)) <= 1e-13 * dmax, (name, r)

    def test_scalar_entry_points_share_the_pass(self):
        mode = ORACLE_MODES["p=1"]()
        for r in (0.2, 0.6):
            f, df = gpsf.eval_phi_and_deriv(mode, r)
            assert gpsf.eval_phi(mode, r) == f
            assert gpsf.eval_phi_deriv(mode, r) == df
            assert isinstance(f, float) and isinstance(df, float)


class TestPathAgreement:
    """One radius at a time against the batched basis on a grid."""

    CASES = ((-1, 20.0, 1, 6), (0, 150.0, 0, 30), (0, 5.0, 40, 2), (1, 50.0, 3, 8))

    def test_basis_paths_agree(self):
        grid = np.linspace(0.0, 1.0, 97)
        for case in self.CASES:
            mode = _solved(*case)
            batched = gpsf.eval_phi(mode, grid)
            scalar = np.array([gpsf.eval_phi(mode, float(r)) for r in grid])
            assert np.max(np.abs(scalar - batched)) <= 4e-15 * np.max(np.abs(batched)), case

    def test_deriv_paths_agree(self):
        # at r = 1 Phi' sums terms of size k^2 |a_k| that cancel to a small
        # value; there each path sits up to 1.4e-14 * max|Phi'| from the
        # 40-digit value (c=150), hence 4e-14
        grid = np.linspace(0.0, 1.0, 97)
        for case in self.CASES:
            mode = _solved(*case)
            batched = gpsf.eval_phi_deriv(mode, grid)
            scalar = np.array([gpsf.eval_phi_deriv(mode, float(r)) for r in grid])
            assert np.max(np.abs(scalar - batched)) <= 4e-14 * np.max(np.abs(batched)), case

    def test_phase_sum_paths_agree_exactly(self):
        # phase_sum against one math.fsum over a list of the products: both are
        # exactly rounded, so they agree bit for bit, whatever the order
        rng = np.random.default_rng(3)
        n = 3 * 65536 + 17
        w = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-8, 8, n)
        ph = rng.uniform(-100.0, 100.0, n)
        re, im = kernels.phase_sum(w, ph)
        assert re == math.fsum((w * np.cos(ph)).tolist())
        assert im == math.fsum((w * np.sin(ph)).tolist())
        perm = rng.permutation(n)
        assert kernels.phase_sum(w[perm], ph[perm]) == (re, im)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
    def test_phase_sum_matches_plain_sum(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, n)
        ph = rng.uniform(-50.0, 50.0, n)
        re, im = kernels.phase_sum(w, ph)
        ref = np.sum(w * np.exp(1j * ph))
        assert abs(complex(re, im) - ref) < 1e-12 * max(1.0, abs(ref))



def _row_loop_basis(alpha, N, K, r, deriv):
    """The basis row loop as it was before the in-place rewrite: one row at a time,
    each with its own temporaries, scaled and multiplied by r^N row by row.  P'_k adds
    its terms as the banded solve does, (a1 P_{k-1} + ay P'_{k-1}) - b P'_{k-2}."""
    c0, a1, b, scale = (t.tolist() for t in kernels._build_tables(alpha, K))
    x = r * r
    rn, drn = kernels._powers(N, r)
    m4r = -4.0 * r
    B = np.empty((K, r.shape[0]))
    D = np.empty_like(B) if deriv else None
    B[0] = scale[0] * rn
    if deriv:
        D[0] = scale[0] * drn
    if K > 1:
        pkm1, pk = np.ones_like(r), (alpha + 1.0) - (alpha + 2.0) * x
        dkm1, dk = np.zeros_like(r), np.full_like(r, (alpha + 2.0) / 2.0)
        for k in range(1, K):
            if k > 1:
                ay = c0[k - 2] - 2.0 * a1[k - 2] * x
                if deriv:
                    dkm1, dk = dk, a1[k - 2] * pk + ay * dk - b[k - 2] * dkm1
                pkm1, pk = pk, ay * pk - b[k - 2] * pkm1
            B[k] = scale[k] * pk * rn
            if deriv:
                D[k] = scale[k] * (dk * m4r * rn + pk * drn)
    return B, D


@pytest.fixture
def route(monkeypatch):
    """Force every build onto one route: ``route("solve")`` or ``route("loop")``."""
    def force(name):
        monkeypatch.setattr(kernels, "_SOLVE_COLUMNS", {"solve": 1 << 30, "loop": 0}[name])
    return force


def _builds(route, *args):
    # (B, D, B alone) of each route, the banded solve's first
    out = []
    for name in ("solve", "loop"):
        route(name)
        out.append((*kernels.rbar_basis_with_deriv(*args), kernels.rbar_basis(*args)))
    return out


class TestBasisRowLoop:
    """The banded solve and the in-place loop each give the row loop's bits, signed zeros included."""

    RADII = np.concatenate([[0.0, 1.0, 1e-6, 0.5], np.random.default_rng(7).uniform(0.0, 1.0, 29)])

    @pytest.mark.parametrize("K", [1, 2, 3, 37, 607])
    @pytest.mark.parametrize("p", [-1, 0, 1])
    @pytest.mark.parametrize("N", [0, 1, 5])
    def test_bit_identical(self, route, K, p, N):
        alpha = N + p / 2.0
        B_ref, D_ref = _row_loop_basis(alpha, N, K, self.RADII, True)
        for B, D, B_only in _builds(route, alpha, N, K, self.RADII):
            assert B.tobytes() == B_ref.tobytes() and D.tobytes() == D_ref.tobytes()
            assert B_only.tobytes() == B_ref.tobytes()
            assert B.flags.c_contiguous and D.flags.c_contiguous


class TestBasisRoutes:
    """The banded solve and the row loop give one basis, bit for bit."""

    RADII = TestBasisRowLoop.RADII

    @pytest.mark.parametrize("K", [1, 2, 3, 37, 607])
    def test_batched_routes_bit_identical(self, route, K):
        channels = TestBatchedColumns.CHANNELS
        rng = np.random.default_rng(K)
        r = np.vstack([np.concatenate([self.RADII[:4], rng.uniform(0.0, 1.0, 3)]) for _ in channels])
        alpha, N = [n + p / 2.0 for p, n in channels], [n for _, n in channels]
        solved, looped = _builds(route, alpha, N, K, r)
        for a, b in zip(solved, looped):
            assert a.shape == (K, r.size) and a.tobytes() == b.tobytes()

    def test_route_follows_the_column_count(self, monkeypatch):
        calls = []
        real = kernels.dgttrs
        monkeypatch.setattr(kernels, "dgttrs", lambda *a, **k: calls.append(len(a[1])) or real(*a, **k))
        m = kernels._SOLVE_COLUMNS
        r = np.linspace(0.0, 1.0, m)
        kernels.rbar_basis_with_deriv(0.5, 1, 30, r)
        kernels.rbar_basis(0.5, 1, 30, r)
        kernels.rbar_basis([0.0, 1.0], [0, 1], 30, np.vstack([r[: m // 2], r[: m // 2]]))
        assert calls == [30 * m] * 4
        kernels.rbar_basis(0.5, 1, 30, np.linspace(0.0, 1.0, m + 1))  # one column too many
        kernels.rbar_basis([0.0, 1.0], [0, 1], 30, np.vstack([r[: m // 2 + 1]] * 2))
        kernels.rbar_basis_with_deriv(0.5, 1, 2, r)  # no degree above 1 to solve for
        assert len(calls) == 4

    def test_overflow_takes_the_loop(self, route):
        # at alpha = 2000 the recurrence overflows near r = 0; in one banded system the
        # inf would spread to the next columns through their zero couplings, so the
        # build is redone by the loop, each column keeping its own values
        r = np.array([0.0, 0.01, 0.9, 1.0, 0.02, 0.95])
        with np.errstate(over="ignore", invalid="ignore"):
            solved, looped = _builds(route, 2000.0, 2000, 400, r)
        for a, b in zip(solved, looped):
            assert a.tobytes() == b.tobytes()
        finite = np.isfinite(solved[0]).all(axis=0)
        assert finite.tolist() == [False, False, True, True, False, True]

    def test_nan_radius_spoils_only_its_column(self, route):
        r = np.array([0.2, np.nan, 0.7])
        with np.errstate(invalid="ignore"):
            solved, looped = _builds(route, 0.5, 1, 20, r)
        for a, b in zip(solved, looped):
            assert a.tobytes() == b.tobytes()
            assert np.isnan(a[1:, 1]).all() and np.isfinite(a[:, [0, 2]]).all()

    @pytest.mark.parametrize("name, bound", [("solve", 8.0), ("loop", 4.0)])
    def test_build_memory(self, route, name, bound):
        # tracemalloc peak in K x m float64 matrices at K = 4000, m = 128: the loop holds P,
        # D and a temporary (3.0), the solve adds its band vectors (6.6); the loop peaked at
        # 4.0 (16.5 MB) before the solve was added, and the solve may take twice that
        K, r = 4000, np.linspace(0.0, 1.0, 128)
        route(name)
        kernels.rbar_basis_with_deriv(0.5, 0, K, r)  # the recurrence table, grown once
        tracemalloc.start()
        try:
            kernels.rbar_basis_with_deriv(0.5, 0, K, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * K * r.size * 8, peak


class TestEmptyRadii:
    """Zero radii give a K-by-0 table on either route, scalar and batched, with and without P'."""

    @pytest.mark.parametrize("name", ["solve", "loop"])
    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_empty_table(self, route, name, K):
        route(name)
        for alpha, N, r in ((0.0, 0, np.array([])), ([0.0, 1.5], [0, 1], np.empty((2, 0)))):
            B = kernels.rbar_basis(alpha, N, K, r)
            B_d, D = kernels.rbar_basis_with_deriv(alpha, N, K, r)
            assert B.shape == B_d.shape == D.shape == (K, 0)


class TestBasisOracle:
    """P and dP/dr of each route against the 40-digit basis of DLMF 18.9.15."""

    RADII = TestBasisRowLoop.RADII[:12]

    @pytest.mark.parametrize("K", [37, 607])
    @pytest.mark.parametrize("p", [-1, 0, 1])
    @pytest.mark.parametrize("N", [0, 1, 5])
    def test_against_extended_precision(self, route, K, p, N):
        # relative to the largest entry of each matrix; the row loop before the solve
        # was added stayed within 7.9e-13 (P) and 3.8e-13 (dP/dr) here
        ref = [rbar_basis_mp(K, p, N, r) for r in self.RADII]
        B_ref, D_ref = (np.array(v).T for v in zip(*ref))
        for B, D, _ in _builds(route, N + p / 2.0, N, K, self.RADII):
            assert np.max(np.abs(B - B_ref)) <= 1e-12 * np.max(np.abs(B_ref))
            assert np.max(np.abs(D - D_ref)) <= 1e-12 * np.max(np.abs(D_ref))


class TestBasisRequest:
    """A truncation or an order the recurrence cannot take is refused before any table."""

    @pytest.mark.parametrize("K", [0, -3, 2.5])
    def test_bad_truncation(self, monkeypatch, K):
        monkeypatch.setattr(kernels, "_recurrence_tables", None)  # any lookup would fail otherwise
        for build in (kernels.rbar_basis, kernels.rbar_basis_with_deriv):
            with pytest.raises(ValueError, match=f"K >= 1, got K={K}$"):
                build(0.0, 0, K, np.array([0.5]))
            with pytest.raises(ValueError, match=f"K >= 1, got K={K}$"):
                build([0.0], [0], K, np.array([[0.5]]))

    @pytest.mark.parametrize("N", [-1, 0.5, math.nan, 2.000001])
    def test_bad_order(self, monkeypatch, N):
        monkeypatch.setattr(kernels, "_recurrence_tables", None)
        for build in (kernels.rbar_basis, kernels.rbar_basis_with_deriv):
            with pytest.raises(ValueError, match=f"nonnegative integer, got N={N}$"):
                build(N + 0.5, N, 3, np.array([0.5]))
            with pytest.raises(ValueError, match=f"nonnegative integer, got N={N}$"):
                build([0.5, N + 0.5], [0, N], 3, np.array([[0.5], [0.5]]))

    def test_whole_numbers_of_any_type(self):
        r = np.array([0.3, 0.8])
        ref = kernels.rbar_basis(2.0, 2, 5, r)
        for K, N in ((np.int64(5), 2), (5.0, np.int32(2)), (5, 2.0)):
            assert kernels.rbar_basis(2.0, N, K, r).tobytes() == ref.tobytes()


class TestBatchedColumns:
    """One batched build over channels of mixed alpha and N, each with its row of radii:
    each channel's column block has the bits of that channel's own build."""

    CHANNELS = [(p, N) for p in (-1, 0, 1) for N in (0, 1, 5)]
    RADII = np.array([0.0, 1e-6, 1.0])

    @staticmethod
    def _check_blocks(K, channels, r):
        m = r.shape[1]
        alpha, N = [n + p / 2.0 for p, n in channels], [n for _, n in channels]
        B, D = kernels.rbar_basis_with_deriv(alpha, N, K, r)
        B_only = kernels.rbar_basis(alpha, N, K, r)
        assert B.shape == D.shape == B_only.shape == (K, len(channels) * m)
        for j, (p, n) in enumerate(channels):
            cols = slice(j * m, (j + 1) * m)
            B_ref, D_ref = kernels.rbar_basis_with_deriv(n + p / 2.0, n, K, r[j])
            assert np.ascontiguousarray(B[:, cols]).tobytes() == B_ref.tobytes(), (p, n)
            assert np.ascontiguousarray(D[:, cols]).tobytes() == D_ref.tobytes(), (p, n)
            assert np.ascontiguousarray(B_only[:, cols]).tobytes() == B_ref.tobytes(), (p, n)

    @pytest.mark.parametrize("K", [1, 2, 3, 37, 607])
    def test_column_blocks_bit_identical(self, K):
        r = np.broadcast_to(self.RADII, (len(self.CHANNELS), len(self.RADII)))
        self._check_blocks(K, self.CHANNELS, r)

    @pytest.mark.parametrize("K", [1, 2, 3, 37, 607])
    def test_own_radius_rows(self, K):
        # channels need not share their radii: each takes its own row
        rng = np.random.default_rng(K)
        r = np.vstack([np.concatenate([self.RADII, rng.uniform(0.0, 1.0, 4)]) for _ in self.CHANNELS])
        self._check_blocks(K, self.CHANNELS[::-1], r)

    def test_interleaved_columns(self):
        # one radius per column, as C channels of one radius each; a channel may repeat
        channels = [(1, 5), (0, 0), (1, 5), (-1, 0), (0, 0)]
        r = np.array([[0.3], [0.3], [0.9], [1e-6], [1.0]])
        B = kernels.rbar_basis([n + p / 2.0 for p, n in channels], [n for _, n in channels], 40, r)
        for j, (p, n) in enumerate(channels):
            assert B[:, j].tobytes() == kernels.rbar_basis(n + p / 2.0, n, 40, r[j]).tobytes()

    @pytest.mark.parametrize("alpha, N, r", [
        ([0.0, 1.0], [0], [0.5, 0.6]),  # one order for two alphas, radii not in rows
        ([0.0, 1.0], [0], [[0.5], [0.6]]),  # fewer orders than alphas
        ([0.0, 1.0], 0, [[0.5], [0.6]]),  # a scalar order with batched alphas
        ([0.5], [0, 1], [[0.5], [0.6]]),  # fewer alphas than orders
        ([0.0, 1.0], [0, 1], [[0.5, 0.6]]),  # fewer radius rows than channels
        ([0.0, 1.0], [0, 1], [0.5, 0.6]),  # radii not in rows
        ([0.0, 1.0], [0, 1], [[[0.5]], [[0.6]]]),  # rows that are not vectors
    ])
    def test_mismatched_batch_refused(self, alpha, N, r):
        for build in (kernels.rbar_basis, kernels.rbar_basis_with_deriv):
            with pytest.raises(ValueError, match="alphas and .* orders for radii of shape"):
                build(np.array(alpha), np.array(N), 3, np.array(r))


class TestRecurrenceTables:
    """One cached table per (alpha, length class), whose prefixes serve every shorter K."""

    @pytest.fixture
    def builds(self, monkeypatch):
        kernels._recurrence_tables.cache_clear()
        calls = []
        real = kernels._build_tables
        monkeypatch.setattr(kernels, "_build_tables",
                            lambda alpha, K: calls.append((alpha, K)) or real(alpha, K))
        yield calls
        kernels._recurrence_tables.cache_clear()  # no table of the counted builds outlives the test

    def test_one_build_per_length_class(self, builds):
        r = np.array([0.2, 0.7])
        for K in (1, 2, 3, 40, 64, 65, 100, 128, 5, 129):
            kernels.rbar_basis(0.5, 0, K, r)
        kernels.rbar_basis_with_deriv([0.5, 1.5, 0.5], [0, 1, 0], 90, np.vstack([r] * 3))
        assert builds == [(0.5, 64), (0.5, 128), (0.5, 256), (1.5, 128)]

    def test_shorter_request_builds_nothing(self, builds):
        r = np.array([0.2, 0.7])
        kernels.rbar_basis(0.5, 0, 40, r)
        first = kernels._recurrence_tables(0.5, 64)
        for K in (1, 2, 3, 39, 40, 64):
            kernels.rbar_basis(0.5, 0, K, r)
            assert kernels._recurrence_tables(0.5, 64) is first
        assert builds == [(0.5, 64)]

    def test_growth_is_at_least_twofold(self, builds):
        r = np.array([0.2, 0.7])
        for K in range(10, 301):
            kernels.rbar_basis(1.0, 0, K, r)
        assert builds == [(1.0, 64), (1.0, 128), (1.0, 256), (1.0, 512)]
        assert all(b[1] >= 2 * a[1] for a, b in zip(builds, builds[1:]))

    def test_longer_table_starts_with_the_shorter(self, builds):
        short = kernels._recurrence_tables(2.5, 64)
        longer = kernels._recurrence_tables(2.5, 1024)
        for a, b, n in zip(short, longer, (62, 62, 62, 64)):
            assert len(a) == n and a.tobytes() == b[:n].tobytes()

    def test_bound(self):
        assert kernels._recurrence_tables.cache_info().maxsize == 256

    @pytest.mark.parametrize("K", [3, 37, 607])
    def test_one_channel_loop_equals_batched_build(self, K):
        # a one-channel build wider than the solve takes the loop with its factors as floats;
        # the batched build of that one channel takes them as arrays
        r = np.random.default_rng(K).uniform(0.0, 1.0, 2 * kernels._SOLVE_COLUMNS)
        r[:2] = 0.0, 1.0
        one = (*kernels.rbar_basis_with_deriv(2.5, 2, K, r), kernels.rbar_basis(2.5, 2, K, r))
        batched = (*kernels.rbar_basis_with_deriv([2.5], [2], K, r[None, :]),
                   kernels.rbar_basis([2.5], [2], K, r[None, :]))
        assert [a.tobytes() for a in one] == [b.tobytes() for b in batched]

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpsf
from gpsf import kernels
from gpsf.prolate import ProlateChannel, ZernikeCoeffs

from oracles import phi_mp

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
        # fused scalar (Phi, Phi') against the 40-digit series and its
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
    """The fused scalar pass against the batched basis on a grid."""

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
        # chunked phase_sum against one math.fsum over all the products:
        # both are exactly rounded, so they agree bit for bit, whatever the order
        rng = np.random.default_rng(3)
        n = 3 * kernels._PHASE_CHUNK + 17
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


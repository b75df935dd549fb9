"""Expansion of band-limited functions in the ball eigenbasis.

A function with band limit c is expanded over the products
Phi_{N,n}(|x|) S_N^ell(x/|x|).  Because the product of the function with
one basis element is band-limited at 2c, sampling on a tensor rule built
for band limit 2c recovers every coefficient whose eigenvalue is above
the noise floor.  On the disk the angular sums collapse to an FFT over
the equispaced angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ballquad import (
    BallRule,
    angular_rule_from_count,
    check_node_count,
    surface_harmonics,
    truncation_bound,
)
from .prolate import ProlateChannel, ZernikeCoeffs, solve_channel, tabulate
from .quadrature import gaussian_rule
from .spectrum import EigenTriple, beta_chain, harmonic_count

__all__ = [
    "GpsfExpansion",
    "ChannelCache",
    "sampling_rule",
    "recover_coeffs",
    "synthesize",
    "coeff_bound",
]

_RELIABLE_FLOOR = 1e-3 * np.finfo(float).eps
_MAX_DEGREE = 5000  # highest angular degree of a sampling rule, whose angular count is twice it


class ChannelCache:
    """Solved radial channels and their eigenvalue chains, by angular order."""

    def __init__(self, p: int, c: float, nmax: int):
        self.p = p
        self.c = c
        self.nmax = nmax
        self._modes: dict[int, list[ZernikeCoeffs]] = {}
        self._triples: dict[int, list[EigenTriple]] = {}

    def modes(self, N: int) -> list[ZernikeCoeffs]:
        if N not in self._modes:
            self._modes[N] = solve_channel(ProlateChannel(self.p, self.c, N), self.nmax)
        return self._modes[N]

    def triples(self, N: int) -> list[EigenTriple]:
        if N not in self._triples:
            self._triples[N] = beta_chain(
                ProlateChannel(self.p, self.c, N), self.nmax, modes=self.modes(N)
            )
        return self._triples[N]


@dataclass(frozen=True)
class GpsfExpansion:
    """Coefficients of a function over the ball eigenbasis.

    ``terms`` maps (N, ell, n) to the complex coefficient on the
    orthonormal basis element; ``unreliable`` lists modes whose
    eigenvalue sits below the recovery noise floor.
    """

    p: int
    c: float
    terms: dict[tuple[int, int, int], complex] = field(repr=False)
    unreliable: frozenset[tuple[int, int, int]] = frozenset()


def sampling_rule(
    p: int,
    c: float,
    radial_count: int | None = None,
    angular_count: int | None = None,
    target: float = 1e-15,
) -> BallRule:
    """Tensor rule at band limit 2c suitable for coefficient recovery.

    The radial factor is a Gauss-type rule sized from the eigenvalue
    spectrum of the doubled channel (half the count of significant modes,
    plus ten); the angular count is the first for which the product
    truncation envelope falls below ``target``.  A band limit that no
    angular count up to 10000 serves raises ``ValueError`` before any
    channel is solved.  So does a rule of more than 4,000,000 nodes: its
    size is checked before any channel is solved, with eleven radial nodes
    (the fewest the default count gives) standing in for a radial count
    still to be found, and checked again once that count is known, before
    the radial rule is built.  The angular rule is built between the two
    checks, so a nonpositive angular count is refused before any solve.
    """
    channel = ProlateChannel(p, 2.0 * c, 0)
    if angular_count is None:
        angular_count = _angular_count(p, channel.c, target)
    # the default radial count is at least _default_radial_count(1)
    what = f"sampling rule for p={p}, c={c:g}"
    check_node_count(what, p, radial_count or _default_radial_count(1), angular_count)
    angular = angular_rule_from_count(p, angular_count)  # refuses a bad count before any solve
    if radial_count is None:
        # significant radial modes end a little past the transition index
        triples = beta_chain(channel, int(channel.c / 2) + 40, mu_stop=1e-18)
        radial_count = _default_radial_count(len(triples))
        check_node_count(what, p, radial_count, angular_count)
    return BallRule(gaussian_rule(channel, radial_count), angular)


def _default_radial_count(modes: int) -> int:
    # half the significant modes of the doubled channel, plus ten
    return math.ceil(modes / 2.0) + 10


def _angular_count(p: int, c2: float, target: float) -> int:
    # smallest even m >= 4 with truncation bound <= target at degree m/2, at most 10000; the bound
    # cannot rise with the degree: bracket by doubling (far past it bounds are slow), then bisect
    hi = 2
    while hi < _MAX_DEGREE and truncation_bound(p, c2, hi) > target:
        hi *= 2
    lo, hi = hi // 2, min(hi, _MAX_DEGREE)
    if hi == _MAX_DEGREE and truncation_bound(p, c2, hi) > target:
        raise ValueError(f"band limit c={c2 / 2.0:g} needs an angular count above {2 * _MAX_DEGREE} "
                         f"for a truncation bound of {target:g}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if truncation_bound(p, c2, mid) > target else (lo, mid)
    return 2 * hi


def _check_modes(p: int, modes) -> None:
    if not modes:
        raise ValueError("no modes requested")
    counts = {N: harmonic_count(p, N) if N >= 0 else 0 for N in {key[0] for key in modes}}
    for key in modes:
        N, ell, n = key
        h = counts[N]
        if h == 0:
            raise ValueError(f"mode {key}: there are no surface harmonics of order N={N} for p={p}")
        if not 1 <= ell <= h:
            raise ValueError(f"mode {key}: ell must lie in 1..{h} for p={p}, N={N}")
        if n < 0:
            raise ValueError(f"mode {key}: n must be nonnegative")


def _check_cache(cache: ChannelCache, p: int, c: float, nmax: int) -> None:
    if cache.p != p or cache.c != c:
        raise ValueError(f"channel cache is for p={cache.p}, c={cache.c}, not p={p}, c={c}")
    if nmax > cache.nmax:
        raise ValueError(f"mode n={nmax} exceeds the channel cache's nmax={cache.nmax}")


def _angular_projection(rule: BallRule, F: np.ndarray, G, S, N: int, ell: int) -> np.ndarray:
    """Integral over the sphere of f(r_j .) S_N^ell at every radial node r_j.

    ``G`` holds the disk's FFT bins G[j, k] = integral f e^(-i k th), or is
    None for the generic sum over the angular nodes of ``F``, with ``S``
    the harmonics of order N at those nodes.
    """
    if G is None:
        return F @ (rule.angular.weights * S[ell - 1])
    if N == 0:
        return G[:, 0] / math.sqrt(2.0 * math.pi)
    pos, neg = G[:, N], G[:, -N % G.shape[1]]
    return (0.5 * (pos + neg) if ell == 1 else 0.5j * (pos - neg)) / math.sqrt(math.pi)


def recover_coeffs(
    rule: BallRule,
    samples: np.ndarray,
    c: float,
    modes: list[tuple[int, int, int]],
    cache: ChannelCache | None = None,
    use_fft: bool = True,
) -> GpsfExpansion:
    """Project sampled values of a band-limited function onto the basis.

    Each channel N is tabulated once at the radial nodes, for all its
    cached modes, and weighted by the radial rule once; its harmonics are
    formed once at the angular nodes, and each angular projection once per
    (N, ell), which gives every n of that pair in one array sum.

    Parameters
    ----------
    rule : BallRule
        Sampling rule; must have been built for band limit 2c.
    samples : ndarray
        f at ``rule.nodes()`` in radial-major order (complex allowed).
    c : float
        Band limit of f.
    modes : list of (N, ell, n)
        Requested basis indices.
    cache : ChannelCache, optional
        Reused radial solves; created on demand.
    use_fft : bool
        On the disk, evaluate the angular sums by FFT (the default);
        otherwise use the generic per-node sum.

    Raises
    ------
    ValueError
        If the rule band limit differs from 2c, no modes are requested, a
        mode does not exist, or the cache was built for another p, c or a
        smaller nmax.
    """
    p = rule.radial.channel.p
    if not math.isclose(rule.bandlimit, 2.0 * c, rel_tol=1e-12):
        raise ValueError(
            f"rule band limit {rule.bandlimit} does not equal twice the function band limit {c}"
        )
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (rule.count,):
        raise ValueError(f"expected {rule.count} samples, got {samples.shape}")
    _check_modes(p, modes)
    top_order = max(N for N, _, _ in modes)
    if p == 0 and 2 * top_order >= rule.angular.count:
        raise ValueError(
            f"angular rule with {rule.angular.count} nodes cannot separate order "
            f"{top_order} harmonics"
        )
    nmax = max(n for _, _, n in modes)
    if cache is None:
        cache = ChannelCache(p, c, nmax)
    _check_cache(cache, p, c, nmax)
    wanted: dict[int, list[tuple[int, int]]] = {}
    for N, ell, n in modes:
        wanted.setdefault(N, []).append((ell, n))
    terms: dict[tuple[int, int, int], complex] = {}
    unreliable = set()
    rweights = rule.radial.weights
    F = samples.reshape(len(rule.radial.nodes), rule.angular.count)
    G = np.fft.fft(F, axis=1) * (2.0 * math.pi / rule.angular.count) if (p == 0 and use_fft) else None
    for N in sorted(wanted):
        triples = cache.triples(N)
        W = tabulate(cache.modes(N), rule.radial.nodes) * rweights
        S = surface_harmonics(p, N, rule.angular.points) if G is None else None
        by_ell: dict[int, list[int]] = {}
        for ell, n in wanted[N]:
            by_ell.setdefault(ell, []).append(n)
        coeffs: dict[tuple[int, int], complex] = {}
        for ell, ns in by_ell.items():
            ang = _angular_projection(rule, F, G, S, N, ell)
            coeffs.update(zip(((ell, n) for n in ns), np.sum(W[ns] * ang, axis=1).tolist()))
        for ell, n in wanted[N]:
            key = (N, ell, n)
            terms[key] = coeffs[ell, n]
            if n >= len(triples) or abs(triples[n].lam) < _RELIABLE_FLOOR:
                unreliable.add(key)
    return GpsfExpansion(p, c, terms, frozenset(unreliable))


def synthesize(
    expansion: GpsfExpansion,
    x,
    cache: ChannelCache | None = None,
) -> complex:
    """Evaluate the expansion at a point of the closed unit ball.

    The radial functions of each order N are tabulated at |x| from one
    basis build, for the n with a nonzero coefficient, and the harmonics
    S_N^ell(x/|x|) once per N; the terms are summed in sorted order.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r > 1.0 + 1e-12:
        raise ValueError("evaluation point must lie in the closed unit ball")
    if not expansion.terms:
        raise ValueError("expansion has no terms")
    nmax = max(n for _, _, n in expansion.terms)
    if cache is None:
        cache = ChannelCache(expansion.p, expansion.c, nmax)
    _check_cache(cache, expansion.p, expansion.c, nmax)
    if r == 0.0:
        xhat = np.zeros(expansion.p + 2)
        xhat[0] = 1.0
    else:
        xhat = x / r
    terms = [(key, coeff) for key, coeff in sorted(expansion.terms.items()) if coeff != 0.0]
    kept: dict[int, set[int]] = {}
    for (N, _, n), _ in terms:
        kept.setdefault(N, set()).add(n)
    phi: dict[tuple[int, int], float] = {}
    harm: dict[int, list[float]] = {}
    for N, ns in kept.items():
        ns = sorted(ns)
        modes = cache.modes(N)
        phi.update(zip(((N, n) for n in ns), tabulate([modes[n] for n in ns], r)[:, 0].tolist()))
        harm[N] = surface_harmonics(expansion.p, N, xhat[None, :])[:, 0].tolist()
    total = 0.0 + 0.0j
    for (N, ell, n), coeff in terms:
        total += coeff * phi[N, n] * harm[N][ell - 1]
    return total


def coeff_bound(sigma_l2: float, triple: EigenTriple) -> float:
    """Coefficient magnitude bound |lambda| * ||sigma||: modes below the
    working precision times this bound are unrecoverable."""
    if sigma_l2 < 0.0:
        raise ValueError("sigma_l2 must be nonnegative")
    return abs(triple.lam) * sigma_l2

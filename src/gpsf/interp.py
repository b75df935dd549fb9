"""Expansion of band-limited functions in the ball eigenbasis.

A function with band limit c is expanded over the products
Phi_{N,n}(|x|) S_N^ell(x/|x|).  Because the product of the function with
one basis element is band-limited at 2c, sampling on a tensor rule built
for band limit 2c recovers every coefficient whose eigenvalue is above
the noise floor.  The angular sums over the tensor rule separate: one
FFT over the equispaced longitudes, then a sum over the polar nodes.
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
from .prolate import ChannelSolve, ProlateChannel, solve_channel, tabulate_channels
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
_TRUNCATION_TARGET = 1e-15  # truncation envelope that sizes the default angular count
_SYNTHESIS_ENTRIES = 1 << 18  # terms times points summed at once: bounds synthesis memory


class ChannelCache:
    """Solved radial channels and their eigenvalue chains, by angular order."""

    def __init__(self, p: int, c: float, nmax: int):
        self.p = p
        self.c = c
        self.nmax = nmax
        self._modes: dict[int, ChannelSolve] = {}
        self._triples: dict[int, list[EigenTriple]] = {}

    def modes(self, N: int) -> ChannelSolve:
        if N not in self._modes:
            self._modes[N] = solve_channel(ProlateChannel(self.p, self.c, N), self.nmax)
        return self._modes[N]

    def triples(self, N: int) -> list[EigenTriple]:
        if N not in self._triples:
            modes = self.modes(N)
            self._triples[N] = beta_chain(modes.channel, self.nmax, modes=modes)
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
) -> BallRule:
    """Tensor rule at band limit 2c suitable for coefficient recovery.

    The radial factor is a Gauss-type rule sized from the eigenvalue
    spectrum of the doubled channel (half the count of significant modes,
    plus ten); the angular count is the first for which the product
    truncation envelope falls below 1e-15.  A band limit that no
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
        angular_count = _angular_count(p, channel.c, _TRUNCATION_TARGET)
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


def recover_coeffs(
    rule: BallRule,
    samples: np.ndarray,
    c: float,
    modes: list[tuple[int, int, int]],
    cache: ChannelCache | None = None,
) -> GpsfExpansion:
    """Project sampled values of a band-limited function onto the basis.

    One basis build tabulates every requested order N at the radial nodes,
    for all its cached modes, and each order's table is weighted by the
    radial rule once.  One angular transform of the samples gives every
    (N, ell) projection, and each coefficient is one array sum over the
    radial nodes.  One comparison per order marks the modes whose
    eigenvalue lies below the noise floor, or past the chain, unreliable.

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
    orders = sorted(wanted)
    terms: dict[tuple[int, int, int], complex] = {}
    unreliable = set()
    projections = rule.angular.projections(samples.reshape(len(rule.radial.nodes), -1), orders)
    tables = tabulate_channels([cache.modes(N) for N in orders], rule.radial.nodes)
    for N, table in zip(orders, tables):
        W = table * rule.radial.weights
        ells, ns = np.array(wanted[N]).T
        sums = np.sum(W[ns] * projections[N][ells - 1], axis=1).tolist()
        keys = [(N, ell, n) for ell, n in wanted[N]]
        terms.update(zip(keys, sums))
        # |lambda| of every n up to nmax, 0 past the end of the chain
        lam = np.array([abs(t.lam) for t in cache.triples(N)] + [0.0] * (nmax + 1))
        unreliable.update(keys[i] for i in np.flatnonzero(lam[ns] < _RELIABLE_FLOOR))
    return GpsfExpansion(p, c, terms, frozenset(unreliable))


def synthesize(
    expansion: GpsfExpansion,
    x,
    cache: ChannelCache | None = None,
) -> complex | np.ndarray:
    """Evaluate the expansion at points of the closed unit ball.

    ``x`` is one point, of shape (p + 2,), whose value is returned as a
    complex, or an (m, p + 2) array of points, whose values are returned as
    an (m,) complex array.  One basis build tabulates every order N's radial
    functions at every |x|, for the n with a nonzero coefficient, and one
    harmonic table per N serves every direction; each point's terms are
    summed in sorted order.  An expansion whose coefficients are all zero
    is zero everywhere, with no basis build.  A point with a non-finite
    coordinate, or outside the ball, raises ``ValueError`` before any
    radial work.
    """
    p = expansion.p
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != p + 2:
        raise ValueError(f"point must have {p + 2} coordinates, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must have finite coordinates")
    # one point's norm is a dot product, with the bits it always had; an array's is taken by rows
    r = np.atleast_1d(np.linalg.norm(x) if x.ndim == 1 else np.linalg.norm(x, axis=1))
    if np.any(r > 1.0 + 1e-12):
        raise ValueError("evaluation point must lie in the closed unit ball")
    if not expansion.terms:
        raise ValueError("expansion has no terms")
    nmax = max(n for _, _, n in expansion.terms)
    if cache is None:
        cache = ChannelCache(p, expansion.c, nmax)
    _check_cache(cache, p, expansion.c, nmax)
    points = np.atleast_2d(x)
    xhat = np.zeros_like(points)
    xhat[:, 0] = 1.0  # the direction taken at the origin
    np.divide(points, r[:, None], out=xhat, where=r[:, None] > 0.0)
    terms = [(key, coeff) for key, coeff in sorted(expansion.terms.items()) if coeff != 0.0]
    values = np.zeros(len(r), dtype=complex)
    if terms:
        step = max(1, _SYNTHESIS_ENTRIES // len(terms))
        for i in range(0, len(r), step):
            values[i : i + step] = _term_sums(p, terms, cache, r[i : i + step], xhat[i : i + step])
    return complex(values[0]) if x.ndim == 1 else values


def _term_sums(p, terms, cache, r, xhat):
    # each point's sum of coeff * Phi_{N,n}(r) * S_N^ell(xhat) over the terms, in their order,
    # from one basis build of every order N at r and one harmonic table per N
    kept: dict[int, set[int]] = {}
    for (N, _, n), _ in terms:
        kept.setdefault(N, set()).add(n)
    ns = {N: sorted(kept[N]) for N in kept}
    row = {key: i for i, key in enumerate((N, n) for N in ns for n in ns[N])}
    phi = np.vstack(list(tabulate_channels([cache.modes(N)[ns[N]] for N in ns], r)))
    harmonics = [surface_harmonics(p, N, xhat) for N in ns]
    first = dict(zip(ns, np.cumsum([0] + [len(h) for h in harmonics]).tolist()))
    coeffs = np.array([coeff for _, coeff in terms], dtype=complex)
    products = (coeffs[:, None] * phi[[row[N, n] for (N, _, n), _ in terms]]
                * np.vstack(harmonics)[[first[N] + ell - 1 for (N, ell, _), _ in terms]])
    # cumsum adds the terms one after another, as a running total does; + 0.0 is its start at 0j
    return np.cumsum(products, axis=0)[-1] + 0.0


def coeff_bound(sigma_l2: float, triple: EigenTriple) -> float:
    """Coefficient magnitude bound |lambda| * ||sigma||: modes below the
    working precision times this bound are unrecoverable."""
    if sigma_l2 < 0.0:
        raise ValueError("sigma_l2 must be nonnegative")
    return abs(triple.lam) * sigma_l2

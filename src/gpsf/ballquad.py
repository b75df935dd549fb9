"""Tensor-product quadrature over the unit ball in R^(p+2), p in {-1,0,1}.

The angular factor with m equispaced longitudes integrates surface
harmonics exactly up to degree m - 1 (the circle; Gauss-Legendre polar
nodes crossed with them on the sphere; the two endpoints on the 0-sphere),
and its sums of harmonics separate into one FFT and a polar sum.  With a
radial rule over weight r^(p+1) it integrates band-limited functions with
super-exponential accuracy in the angular degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .quadrature import QuadratureRule1D
from .spectrum import harmonic_count

_MAX_NODES = 4_000_000  # most nodes of a ball rule that a request may build

__all__ = [
    "AngularRule",
    "BallRule",
    "angular_rule_from_count",
    "angular_node_count",
    "check_node_count",
    "integrate_exponential",
    "truncation_bound",
    "surface_area",
    "ball_volume",
    "surface_harmonic",
    "surface_harmonics",
]


def surface_area(p: int) -> float:
    """Area of the unit sphere S^(p+1) in R^(p+2)."""
    return 2.0 * math.pi ** (p / 2.0 + 1.0) / math.gamma(p / 2.0 + 1.0)


def ball_volume(p: int) -> float:
    """Volume of the unit ball in R^(p+2)."""
    return math.pi ** (p / 2.0 + 1.0) / math.gamma(p / 2.0 + 2.0)


@dataclass(frozen=True)
class AngularRule:
    """Nodes on S^(p+1), polar-major: polar cosines u_i times m equispaced longitudes.

    Node (i, j) is (s_i cos phi_j, s_i sin phi_j, u_i), s_i = sqrt(1 - u_i^2),
    without the last coordinate on the circle (u = 0) and with only it on
    the 0-sphere (m = 1); its weight is the polar weight times 2 pi / m (1 for p = -1).
    """

    p: int
    polar: np.ndarray = field(repr=False)
    polar_weights: np.ndarray = field(repr=False)
    longitudes: int

    @property
    def count(self) -> int:
        return len(self.polar) * self.longitudes

    @property
    def points(self) -> np.ndarray:
        """Unit vectors of the nodes, shape (count, p+2)."""
        m = self.longitudes
        th = 2.0 * math.pi * np.arange(m) / m
        s = np.sqrt(1.0 - self.polar * self.polar)[:, None]
        cols = [s * np.cos(th), s * np.sin(th)] if self.p >= 0 else []
        if self.p != 0:
            cols.append(np.repeat(self.polar[:, None], m, axis=1))
        return np.stack([col.reshape(-1) for col in cols], axis=1)

    @property
    def weights(self) -> np.ndarray:
        arc = 2.0 * math.pi if self.p >= 0 else 1.0
        return np.repeat(self.polar_weights * arc / self.longitudes, self.longitudes)

    def projections(self, F: np.ndarray, orders) -> dict[int, np.ndarray]:
        """Sums over the nodes of each row of F times w S_N^ell, as [N][ell - 1], N in orders.

        One FFT over the longitudes gives every frequency's cos and sin sums, then a polar
        sum per order; a frequency k >= m wraps modulo m, as in the sum over the nodes.
        """
        m = self.longitudes
        G = np.fft.fft(F.reshape(len(F), len(self.polar), m), axis=2).T
        neg = G[-np.arange(m) % m]
        trig = np.concatenate([0.5 * (G + neg), 0.5j * (G - neg)])  # cos k, then sin k rows
        ring = self.weights[::m]
        out = {}
        for N in orders:
            k, theta = _polar_factors(self.p, N, self.polar)
            out[N] = np.einsum("hir,hi->hr", trig[np.abs(k) % m + m * (k < 0)], theta * ring)
        return out


@dataclass(frozen=True)
class BallRule:
    """Tensor product of a radial rule and an angular rule."""

    radial: QuadratureRule1D
    angular: AngularRule

    def __post_init__(self):
        if self.radial.channel.p != self.angular.p:
            raise ValueError("radial and angular rules disagree on the dimension parameter")

    @property
    def bandlimit(self) -> float:
        return self.radial.channel.c

    @property
    def count(self) -> int:
        return len(self.radial.nodes) * self.angular.count

    def nodes(self) -> np.ndarray:
        """All nodes r_j * x_i, radial-major, shape (count, p+2)."""
        return (self.radial.nodes[:, None, None] * self.angular.points[None, :, :]).reshape(
            self.count, -1
        )

    def weights(self) -> np.ndarray:
        """Matching products w_j * v_i, radial-major."""
        return (self.radial.weights[:, None] * self.angular.weights[None, :]).reshape(-1)


def angular_rule_from_count(p: int, m: int) -> AngularRule:
    """Angular rule on S^(p+1) with m equispaced angles; m < 1 raises ``ValueError``.

    p = 0: the m-point equal-weight circle rule.
    p = 1: m equispaced longitudes crossed with ceil(m/2) Gauss-Legendre
           nodes in the polar cosine.
    p = -1: the two endpoints -1, +1 with unit weights, whatever m is.
    For p = 0 and 1 the rule integrates surface harmonics of degree up to
    m - 1 exactly; the endpoint rule integrates both harmonics of p = -1.
    """
    if p not in (-1, 0, 1):
        raise ValueError(f"angular rules exist for p in (-1, 0, 1), got {p}")
    if m < 1:
        raise ValueError("angular count must be positive")
    if p == -1:
        return AngularRule(-1, np.array([-1.0, 1.0]), np.ones(2), 1)
    if p == 0:
        return AngularRule(0, np.zeros(1), np.ones(1), m)
    return AngularRule(1, *_gauss_legendre((m + 1) // 2), m)  # exact through degree 2q-1 >= m-1


def angular_node_count(p: int, m: int) -> int:
    """Number of nodes of ``angular_rule_from_count(p, m)``, without building it."""
    if p == -1:
        return 2
    return m if p == 0 else m * ((m + 1) // 2)


def check_node_count(what: str, p: int, radial_count: int, angular_count: int) -> None:
    """Refuse a tensor rule of more than 4,000,000 nodes before it is built.

    The rule has ``radial_count`` times ``angular_node_count(p,
    angular_count)`` nodes; ``what`` names it in the ``ValueError``.
    """
    count = radial_count * angular_node_count(p, angular_count)
    if count > _MAX_NODES:
        raise ValueError(f"{what} needs at least {count} nodes ({radial_count} radial, "
                         f"angular count {angular_count}), above the limit of {_MAX_NODES}")


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre rule on [-1, 1] with weights accurate to round-off.

    The ``leggauss`` nodes are polished by Newton steps on the Legendre
    recurrence and the weights taken as 2 / ((1 - u^2) P_q'(u)^2) at the
    polished nodes, without renormalization (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013); ``leggauss`` weights are off by up to 5e-15.
    """

    def legendre_and_deriv(u):
        p0, p1 = np.ones_like(u), u
        for k in range(1, q):
            p0, p1 = p1, ((2 * k + 1) * u * p1 - k * p0) / (k + 1)
        return p1, q * (u * p1 - p0) / (u * u - 1.0)

    u, _ = np.polynomial.legendre.leggauss(q)
    for _ in range(3):
        pq, dp = legendre_and_deriv(u)
        u = u - pq / dp
    _, dp = legendre_and_deriv(u)
    return u, 2.0 / ((1.0 - u * u) * dp * dp)


def integrate_exponential(rule: BallRule, x, c: float) -> complex:
    """Quadrature value of the integral of e^(i c <x, t>) over the ball.

    Real and imaginary parts are each summed exactly rounded over the
    nodes, so results are bitwise reproducible and independent of the
    node order.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (rule.radial.channel.p + 2,):
        raise ValueError(f"point must have {rule.radial.channel.p + 2} coordinates")
    phases = c * (rule.nodes() @ x)
    return complex(*kernels.phase_sum(rule.weights(), phases))


def truncation_bound(p: int, c: float, K: int) -> float:
    """Certified angular-truncation error envelope for the exponential.

    Sums the tail over harmonic degrees N > K of
    (2 pi)^(p/2+1) * (c/2)^(2N) 2^(-p) / Gamma(N+p/2+1)^2 * V_(p+2)(1)
    * (sum over the h(N) harmonics of their maximum modulus, bounded by
    h(N)/sqrt(area)).  Decreases super-exponentially once 2N exceeds e*c.
    A term past the float range makes the bound ``math.inf``.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    pref = math.log(2.0 * math.pi) * (p / 2.0 + 1.0) + math.log(ball_volume(p))
    sqrt_area = 0.5 * math.log(surface_area(p))
    total = 0.0
    for N in range(K + 1, K + 600):
        h = harmonic_count(p, N)
        if h == 0:
            break
        lt = (
            pref
            + 2.0 * N * math.log(c / 2.0)
            - p * math.log(2.0)
            - 2.0 * math.lgamma(N + p / 2.0 + 1.0)
            + math.log(h)
            - sqrt_area
        )
        try:
            term = math.exp(lt) if lt > -745.0 else 0.0
        except OverflowError:
            return math.inf
        total += term
        if term < 1e-30 * max(total, 1e-300):
            break
    return total


def surface_harmonic(p: int, N: int, ell: int, points: np.ndarray) -> np.ndarray:
    """Orthonormal real surface harmonic S_N^ell, row ell - 1 of :func:`surface_harmonics`."""
    h = harmonic_count(p, N)
    if not 1 <= ell <= h:
        raise ValueError(f"ell must lie in 1..{h} for p={p}, N={N}")
    return surface_harmonics(p, N, points)[ell - 1]


def surface_harmonics(p: int, N: int, points: np.ndarray) -> np.ndarray:
    """Every orthonormal real surface harmonic of order N at unit vectors ``points``.

    Row ell - 1 is S_N^ell.  For p = 0, ell = 1 is cos(N phi)/sqrt(pi) and
    ell = 2 sin(N phi)/sqrt(pi) (N = 0 has the one constant harmonic).  For
    p = 1, ell = 1..2N+1 are m = 0, then (cos, sin) pairs for m = 1..N.  For
    p = -1 they are the constant and the sign function, of unit norm.
    """
    u = points[:, -1] if p != 0 else np.zeros(len(points))
    phi = np.arctan2(points[:, 1], points[:, 0]) if p >= 0 else np.zeros(len(points))
    k, theta = _polar_factors(p, N, u)
    kphi = np.abs(k)[:, None] * phi
    return theta * np.where(k[:, None] >= 0, np.cos(kphi), np.sin(kphi))


def _polar_factors(p: int, N: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed azimuthal frequency k and polar factor theta of each harmonic of order N.

    S_N^ell = theta[ell - 1](u) times cos(k phi), or sin(|k| phi) for k < 0.  On
    the sphere theta is sph_legendre_p times sqrt(2) (-1)^k for k != 0.
    """
    if p == -1:
        theta = (np.ones_like(u) if N == 0 else np.sign(u))[None, :] / math.sqrt(2.0)
        return np.zeros(harmonic_count(p, N), dtype=int), theta[: harmonic_count(p, N)]
    if p == 0:
        k = np.array([0]) if N == 0 else np.array([N, -N])
        return k, np.full((len(k), len(u)), 1.0 / math.sqrt(2.0 * math.pi if N == 0 else math.pi))
    if p == 1:
        from scipy.special import sph_legendre_p

        m = np.arange(N + 1)
        P = sph_legendre_p(N, m[:, None], np.arccos(np.clip(u, -1.0, 1.0))).reshape(N + 1, len(u))
        P[1:] *= (math.sqrt(2.0) * (-1.0) ** m[1:])[:, None]
        k = np.concatenate([[0], np.stack([m[1:], -m[1:]], axis=1).reshape(-1)])
        return k, P[np.abs(k)]
    raise ValueError(f"surface harmonics implemented for p in (-1, 0, 1), got {p}")

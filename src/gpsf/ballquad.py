"""Tensor-product quadrature over the unit ball in R^(p+2), p in {-1,0,1}.

The angular factor with m equispaced angles integrates surface harmonics
exactly up to degree m - 1 (equispaced angles on the circle,
Gauss-Legendre-by-equispaced products on the sphere, the two endpoints on
the 0-sphere); combined with
a radial rule over weight r^(p+1) it integrates band-limited functions
with super-exponential accuracy in the angular degree.
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
    "tensor_rule",
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
    """Nodes on S^(p+1) with their weights."""

    p: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.weights)


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
    """Angular rule on S^(p+1) with m equispaced angles.

    p = 0: the m-point equal-weight circle rule.
    p = 1: m equispaced longitudes crossed with ceil(m/2) Gauss-Legendre
           nodes in the polar cosine.
    p = -1: the two endpoints -1, +1 with unit weights; m is ignored.
    For p = 0 and 1 the rule integrates surface harmonics of degree up to
    m - 1 exactly; the endpoint rule integrates both harmonics of p = -1.
    """
    if p == -1:
        return AngularRule(-1, np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))
    if p not in (0, 1):
        raise ValueError(f"angular rules exist for p in (-1, 0, 1), got {p}")
    if m < 1:
        raise ValueError("angular count must be positive")
    return _circle_rule(m) if p == 0 else _sphere_rule(m)


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


def _circle_rule(m: int) -> AngularRule:
    th = 2.0 * math.pi * np.arange(m) / m
    pts = np.column_stack([np.cos(th), np.sin(th)])
    return AngularRule(0, pts, np.full(m, 2.0 * math.pi / m))


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


def _sphere_rule(m_azimuth: int) -> AngularRule:
    q = (m_azimuth + 1) // 2  # Gauss-Legendre exact through polynomial degree 2q-1 >= m-1
    u, gw = _gauss_legendre(q)
    th = 2.0 * math.pi * np.arange(m_azimuth) / m_azimuth
    s = np.sqrt(1.0 - u * u)
    pts = np.empty((q * m_azimuth, 3))
    w = np.empty(q * m_azimuth)
    for i in range(q):
        sl = slice(i * m_azimuth, (i + 1) * m_azimuth)
        pts[sl, 0] = s[i] * np.cos(th)
        pts[sl, 1] = s[i] * np.sin(th)
        pts[sl, 2] = u[i]
        w[sl] = gw[i] * 2.0 * math.pi / m_azimuth
    return AngularRule(1, pts, w)


def tensor_rule(radial: QuadratureRule1D, angular: AngularRule) -> BallRule:
    """Combine a radial and an angular rule into a ball rule."""
    return BallRule(radial, angular)


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
    """Orthonormal real surface harmonic S_N^ell at unit vectors ``points``.

    Conventions: for p = 0, ell = 1 is cos(N theta)/sqrt(pi) and ell = 2
    is sin(N theta)/sqrt(pi) (N = 0 has the single constant harmonic).
    For p = 1 the real spherical harmonics are indexed ell = 1..2N+1 in
    the order m = 0, (cos, sin) pairs for m = 1..N.  For p = -1 the two
    harmonics are the constant and the sign function, scaled to unit
    norm.  This is row ell - 1 of :func:`surface_harmonics`.
    """
    h = harmonic_count(p, N)
    if not 1 <= ell <= h:
        raise ValueError(f"ell must lie in 1..{h} for p={p}, N={N}")
    return surface_harmonics(p, N, points)[ell - 1]


def surface_harmonics(p: int, N: int, points: np.ndarray) -> np.ndarray:
    """Every surface harmonic of order N at unit vectors ``points``, row ell - 1 S_N^ell.

    For p = 1 one ``sph_harm_y`` call gives the complex harmonics of all
    orders m = 0..N; the cos and sin harmonics are their real and imaginary parts.
    """
    if p == 0:
        if N == 0:
            return np.full((1, len(points)), 1.0 / math.sqrt(2.0 * math.pi))
        th = np.arctan2(points[:, 1], points[:, 0])
        return np.stack([np.cos(N * th), np.sin(N * th)]) / math.sqrt(math.pi)
    if p == -1:
        S = np.ones((1, len(points))) if N == 0 else np.sign(points[None, :, 0])
        return S[: harmonic_count(p, N)] / math.sqrt(2.0)
    if p == 1:
        from scipy.special import sph_harm_y

        theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
        phi = np.arctan2(points[:, 1], points[:, 0])
        m = np.arange(N + 1)
        y = sph_harm_y(N, m[:, None], theta, phi)
        scale = (math.sqrt(2.0) * (-1.0) ** m[1:])[:, None]
        out = np.empty((2 * N + 1, len(points)))
        out[0] = np.real(y[0])
        out[1::2] = scale * np.real(y[1:])
        out[2::2] = scale * np.imag(y[1:])
        return out
    raise ValueError(f"surface harmonics implemented for p in (-1, 0, 1), got {p}")

"""Exponent arithmetic, box dual-volume brackets, and volume-product bounds.

The box bracket constants are transcribed from the explicit displays in the
estimate's proof, not from the bare statement; each branch records its
constant's formula for audit. Two displays contain arithmetic slips (their
literal constants fail even the cube sanity check), so the constants used
here are re-derived along the same proof path and are provably valid:

* the q >= n branch needs the full box measure 2^n per coordinate slab and a
  final factor n from bounding the coordinate sum, giving
  q 2^n n^{(q-n)/2} / (q-n+1);
* the integer branch needs |t| >= (t1+t2)/sqrt(2) on the two-dimensional
  block, giving an extra sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import StarBody, SupportPolytope, geometry_stats, support_profile, \
    vertex_enumeration
from .measures import dual_mixed_volume
from .sphere import SphericalGrid, sphere_area, stable_sum, unit_ball_volume

__all__ = [
    "ExponentPair",
    "BoxSpec",
    "BoundsReport",
    "q_star",
    "admissible_exponent_s",
    "box_bounds",
    "box_dual_volume_mc",
    "verify_box",
    "santalo_product",
    "bs_dual_product",
    "inradius_diagnostic",
]

INTEGER_BRANCH_GATE = 1e-9


def q_star(q: float, n: int) -> float:
    """Dual exponent of q: q/(q-n+1) for q >= n, (n-1)q/(q-1) for 1 < q < n,
    infinity for 0 < q <= 1.

    The value is cross-checked against its sup characterization: r is
    admissible iff (n-1)/q + 1/r >= 1 and (n-1)/r + 1/q >= 1, and q* is the
    supremum of admissible r.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if q <= 1.0:
        return math.inf
    if q >= n:
        value = q / (q - n + 1.0)
    else:
        value = (n - 1.0) * q / (q - 1.0)

    def admissible(r: float) -> bool:
        return (n - 1.0) / q + 1.0 / r >= 1.0 - 1e-12 and \
            (n - 1.0) / r + 1.0 / q >= 1.0 - 1e-12

    eps = 1e-6 * value
    if not admissible(value - eps):
        raise RuntimeError(f"q* = {value} for q = {q}, n = {n} fails its "
                           "sup characterization")
    if admissible(value + 10 * eps) and value != n:
        raise RuntimeError(f"q* = {value} for q = {q}, n = {n} is not "
                           "maximal")
    return value


@dataclass(frozen=True)
class ExponentPair:
    """q together with its dual exponent for a given dimension."""

    q: float
    n: int
    q_star: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q_star", q_star(self.q, self.n))


def admissible_exponent_s(p: float, q: float, n: int) -> float:
    """Integrability exponent required of the prescribed density.

    Returns 1/(1 + p/q*) for q > 1; for q <= 1 any exponent above 1 works and
    math.inf is returned as the sentinel. p must lie strictly inside
    (-q*, 0); out-of-range p raises with the violated bound named.
    """
    if p >= 0:
        raise ValueError(f"p must be negative, got {p}")
    qs = q_star(q, n)
    if not (-qs < p):
        raise ValueError(
            f"p = {p} outside the admissible range -q* < p < 0 (q* = {qs})"
        )
    if q <= 1.0:
        return math.inf
    return 1.0 / (1.0 + p / qs)


@dataclass(frozen=True)
class BoxSpec:
    """Coordinate box with half-axes sorted ascending."""

    half_axes: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.half_axes, dtype=float))
        if a.ndim != 1 or a.size < 2:
            raise ValueError("need at least two half-axes")
        if np.any(a <= 0):
            raise ValueError("half-axes must be positive")
        if np.any(np.diff(a) < 0):
            raise ValueError("half-axes must be sorted ascending")
        a.setflags(write=False)
        object.__setattr__(self, "half_axes", a)

    @property
    def dim(self) -> int:
        return self.half_axes.size

    def star_body(self) -> StarBody:
        return StarBody.box(self.half_axes)

    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_axes))


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float
    observed: float | None
    passed: bool | None
    branch: str
    constants_used: dict

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def _branch(q: float, n: int) -> str:
    j = round(q)
    if abs(q - j) < INTEGER_BRANCH_GATE and 1 <= j <= n - 1:
        return "integer-log"
    if q > n - 1:
        return "top" if q >= n else "near-top"
    return "fractional"


def box_bounds(box: BoxSpec, q: float) -> BoundsReport:
    """Bracket [lower, upper] for the dual volume of a coordinate box.

    Near-integer q (within 1e-9) with 1 <= q <= n-1 routes to the logarithmic
    branch, since the fractional-branch constants blow up like 1/(q - i).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    a = box.half_axes
    n = box.dim
    branch = _branch(q, n)
    consts: dict[str, tuple[str, float]] = {}

    if branch == "integer-log":
        j = round(q)
        ratio = a[j] / a[j - 1]
        shape = float(np.prod(a[:j])) * (1.0 + math.log(ratio))
        c_up = q * 2.0 ** (n - q + 3) * math.sqrt(2.0) * sphere_area(n - j - 1) / n \
            * 2.0 ** (j - 1)
        consts["upper"] = (
            "q 2^{n-q+3} sqrt(2) alpha_{n-q-1}/n * 2^{q-1}", c_up)
        upper = c_up * shape
        c_r1 = (q / n) * n ** ((q - n) / 2.0) * 2.0 ** j
        c_r2 = q ** ((q - n) / 2.0 + 1.0) / n * sphere_area(n - j) * 2.0 ** (j - n)
        c_low = 0.5 * min(c_r1, c_r2)
        consts["lower"] = (
            "min(q/n n^{(q-n)/2} 2^q, q^{(q-n)/2+1}/n alpha_{n-q} 2^{q-n})/2",
            c_low)
        lower = c_low * shape
    elif branch in ("top", "near-top"):
        shape = float(np.prod(a[:n - 1])) * a[n - 1] ** (q - n + 1.0)
        if branch == "near-top":
            c_up = q * 2.0 ** (n - q + 1) / (n * (q - n + 1.0)) * 2.0 ** (n - 1)
            consts["upper"] = ("q 2^{n-q+1}/(n(q-n+1)) * 2^{n-1}", c_up)
        else:
            c_up = q * 2.0 ** n * n ** ((q - n) / 2.0) / (q - n + 1.0)
            consts["upper"] = ("q 2^n n^{(q-n)/2}/(q-n+1)", c_up)
        upper = c_up * shape
        c = math.sqrt(n) if q <= n else 0.5
        c_low = (q / n) * c ** (q - n) * 2.0 ** (n - 1)
        consts["lower"] = ("q/n c^{q-n} 2^{n-1}, c = sqrt(n) or 1/2", c_low)
        lower = c_low * shape
    else:
        i = int(math.floor(q))
        shape = float(np.prod(a[:i])) * a[i] ** (q - i)
        c_up = q * 2.0 ** (n - q + 1) * sphere_area(n - i - 1) \
            / (n * (i + 1.0 - q) * (q - i)) * 2.0 ** i
        consts["upper"] = (
            "q 2^{n-q+1} alpha_{n-i-1}/(n(i+1-q)(q-i)) * 2^i", c_up)
        upper = c_up * shape
        c_low = (q / n) * n ** ((q - n) / 2.0) * 2.0 ** i
        consts["lower"] = ("q/n n^{(q-n)/2} 2^i", c_low)
        lower = c_low * shape

    return BoundsReport(lower=lower, upper=upper, observed=None, passed=None,
                        branch=branch, constants_used=consts)


def box_dual_volume_mc(box: BoxSpec, q: float, grid: SphericalGrid) -> float:
    """Quadrature oracle for the box dual volume, from the exact box radial."""
    if grid.dim != box.dim:
        raise ValueError("grid dimension must match the box")
    rho = box.star_body().radial(grid.nodes)
    return stable_sum(rho ** q * grid.weights) / box.dim


def verify_box(box: BoxSpec, q: float, grid: SphericalGrid) -> BoundsReport:
    """Bracket check: does the quadrature value fall inside [lower, upper]?"""
    report = box_bounds(box, q)
    observed = box_dual_volume_mc(box, q, grid)
    passed = report.lower <= observed <= report.upper
    return BoundsReport(lower=report.lower, upper=report.upper,
                        observed=observed, passed=passed, branch=report.branch,
                        constants_used=report.constants_used)


# ---------------------------------------------------------------------------
# volume products


def santalo_product(body: SupportPolytope, grid: SphericalGrid,
                    slack: float = 0.02) -> dict:
    """Volume product V(K) V(K*) against its upper bound kappa_n^2 (needs a
    centered body) and the strict lower bound kappa_n^2 / 4^n.

    V(K) is the q = n dual volume on the grid; V(K*) integrates h_K^{-n}
    with support values taken from the vertex representation. The forward
    comparison is skipped (pass flag None) when the centering precondition
    fails; the lower bound is checked either way.
    """
    n = body.dim
    stats = geometry_stats(body, grid)
    centered_ok = float(np.linalg.norm(stats["centroid"])) <= \
        1e-3 * stats["circumradius"]
    rho, h = _radial_and_support(body, grid)
    vol = stable_sum(rho ** n * grid.weights) / n
    vol_polar = stable_sum(h ** (-float(n)) * grid.weights) / n
    product = vol * vol_polar
    kappa_sq = unit_ball_volume(n) ** 2
    floor = kappa_sq / 4.0 ** n
    return {
        "product": product,
        "volume": vol,
        "polar_volume": vol_polar,
        "kappa_sq": kappa_sq,
        "kuperberg_floor": floor,
        "centered": centered_ok,
        "pass_forward": product <= kappa_sq * (1.0 + slack) if centered_ok else None,
        "pass_floor": product > floor,
    }


def _radial_and_support(body: SupportPolytope, grid: SphericalGrid):
    from .bodies import radial_profile

    rho, _ = radial_profile(body, grid.nodes)
    verts = vertex_enumeration(body)
    h = support_profile(body, grid.nodes, vertices=verts)
    if np.min(h) <= 0.0:
        # 0 is interior, so h_K > 0 everywhere; a violation means vertex
        # enumeration silently degraded on near-degenerate geometry
        raise ValueError("inconsistent vertex enumeration (h_K <= 0); "
                         "body too ill-conditioned for polar integrals")
    return (rho, h)


def bs_dual_product(body: SupportPolytope, q_body_1: StarBody,
                    q_body_2: StarBody, q: float, r: float,
                    grid: SphericalGrid) -> float:
    """V~_q(K, Q1)^{1/q} * V~_r(K*, Q2)^{1/r}, the scale-invariant product
    whose two-sided boundedness is the dual volume-product inequality.

    Requires r <= q*(q). The polar factor integrates h_K^{-r} rho_{Q2}^{n-r}
    directly (the polar's radial function is 1/h_K), so no polar body is
    constructed.
    """
    n = body.dim
    qs = q_star(q, n)
    if r > qs * (1 + 1e-12):
        raise ValueError(f"r = {r} exceeds q* = {qs}")
    v_q = dual_mixed_volume(body, q_body_1, q, grid)
    _, h = _radial_and_support(body, grid)
    rho_q2 = q_body_2.radial(grid.nodes)
    v_r_polar = stable_sum(h ** (-r) * rho_q2 ** (n - r) * grid.weights) / n
    return v_q ** (1.0 / q) * v_r_polar ** (1.0 / r)


def inradius_diagnostic(body: SupportPolytope, q_body: StarBody, q: float,
                        grid: SphericalGrid) -> dict:
    """Ratio inradius / V~_q(K, Q)^{1/q}, the quantity whose uniform positive
    floor (for bodies inside a fixed ball and sandwiched Q) underlies the
    compactness step. Logged, not asserted: the floor constant is not
    explicit.
    """
    t = dual_mixed_volume(body, q_body, q, grid)
    stats = geometry_stats(body, grid)
    return {
        "dual_volume": t,
        "inradius": stats["inradius"],
        "circumradius": stats["circumradius"],
        "ratio": stats["inradius"] / t ** (1.0 / q),
    }

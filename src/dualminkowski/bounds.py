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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import StarBody, SupportPolytope, radial_profile, radial_stats, \
    support_profile, vertex_enumeration
from .measures import dual_mixed_volume
from .sphere import SphericalGrid, sphere_area, stable_sum, unit_ball_volume

__all__ = [
    "BoxSpec",
    "BoundsReport",
    "q_star",
    "admissible_exponent_s",
    "box_bounds",
    "box_dual_volume",
    "verify_box",
    "santalo_product",
    "bs_dual_product",
]

INTEGER_BRANCH_GATE = 1e-9
# santalo_product passes the forward bound when V(K) V(K*) is at most
# (1 + SANTALO_SLACK) kappa_n^2
SANTALO_SLACK = 0.02
# box_dual_volume sums the erf power series up to x0, with (x0 |b|)^2 the
# larger of SERIES_REACH^2 and (q - n)/2, b the box's half-axes scaled to a
# largest of 1. Up to q = n + 8 the series sum is then at least e^-4 times
# its first term, and the sum of its absolute terms at most e^4 times. A
# shorter reach cancels the series against the tail integral when q > n:
# at n = 3 and q = 16, reach 1/2 was off by 8e-8 and reach 2 by under
# 1e-15, against a 60-digit evaluation of the same formula
SERIES_REACH = 2.0
# terms of that series; 150! is still below the largest double
ERF_SERIES_TERMS = 150
# the tail integral's panels are min(1, PANEL_DECAY / q) wide in log x, so
# x^-q falls by at most e^20 across one; on unit panels a 16-point rule
# integrates e^-qu to 2e-15 at q = 20 and only to 1e-9 at q = 41
PANEL_DECAY = 20.0
# box_dual_volume takes q up to n + Q_EXCESS_LIMIT. Against a 250-digit
# evaluation it was off by at most 3e-14 up to q = n + 161, and by 3.5e-8
# at q = n + 201
Q_EXCESS_LIMIT = 150.0
# Gauss-Legendre points on each panel of the tail integral. Against a
# 60-digit evaluation on 166 boxes (n = 2 to 8, q = 0.1 to 24), 16 points
# were off by at most 2e-15 up to q = 16 and 7.4e-14 at q = 24 (with a
# fixed reach of 2); 12 points by 3e-8, and 10 points by 1.1e-5
TAIL_DEGREE = 16
# erf(x) rounds to 1.0 in double precision from x = 6 on
_ERF_ONE = 6.0
_erf = np.vectorize(math.erf, otypes=[float])
# the smallest normal double
_TINY = float(np.finfo(float).tiny)
# _log_erf takes erf(z) as linear below this log z
_LOG_ERF_LINEAR = -20.0


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
        if not np.all((a > 0) & (a < np.inf)):
            raise ValueError("half-axes must be positive and finite")
        if np.any(np.diff(a) < 0):
            raise ValueError("half-axes must be sorted ascending")
        a.setflags(write=False)
        object.__setattr__(self, "half_axes", a)

    @property
    def dim(self) -> int:
        return self.half_axes.size


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
    # a box past the double range gets inf ends, which verify_box rejects
    with np.errstate(over="ignore"):
        lower, upper = _bracket(a, n, q, branch, consts)
    return BoundsReport(lower=lower, upper=upper, observed=None, passed=None,
                        branch=branch, constants_used=consts)


def _bracket(a: np.ndarray, n: int, q: float, branch: str, consts: dict):
    """box_bounds' lower and upper ends on the branch, recording the
    constants in consts."""
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
    return lower, upper


@functools.cache
def _gauss_legendre(degree: int):
    """Read-only Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for part in rule:
        part.setflags(write=False)
    return rule


def _rgamma(z: float) -> float:
    """1 / Gamma(z), an entire function: 0 at z = 0, -1, -2, ..."""
    if z > 0.0:
        return 1.0 / math.gamma(z)
    m = round(z)
    return math.gamma(1.0 - z) * (-1) ** (m % 2) * math.sin(math.pi * (z - m)) \
        / math.pi


def _label(box: BoxSpec, q: float) -> str:
    axes = ", ".join(f"{a:.6g}" for a in box.half_axes)
    return f"n = {box.dim}, q = {q:g}, half-axes [{axes}]"


def box_dual_volume(box: BoxSpec, q: float) -> float:
    """Dual volume V~_q of the box prod [-a_j, a_j], from a 1-D integral.

    V~_q = (q/n) int_box |x|^{q-n} dx. Writing |x|^{q-n} as a Laplace
    integral factorises the box integral into G(x) = prod_j erf(a_j x):
    int_box |x|^{q-n} dx = 2 pi^{n/2} M(q) / Gamma((n-q)/2), with
    M(q) = int_{x0}^inf x^{-q-1} G(x) dx
           + sum_k c_k x0^{n+2k-q} / (n+2k-q),
    where G(x) = x^n sum_k c_k x^{2k} is the product of the erf series.
    This is the analytic continuation of M, so it holds for every q > 0
    and every n: the poles of the sum at q = n + 2k meet the zeros of
    1 / Gamma. The axes are scaled so the largest is 1, and x0 is set by
    SERIES_REACH and q on the scaled axes b. The tail runs by
    TAIL_DEGREE-point Gauss-Legendre rules on panels of log x, up to past
    6 / min b, beyond which G is 1.0 in double precision and the rest is
    X^{-q} / q. The term of the pole nearest q, k = round((q - n)/2), is
    taken with its factor 1 / Gamma((n-q)/2) in the form
    (-1)^k Gamma(1+k+d) sin(pi d) / (2 pi d) c_k x0^{-2d},
    d = (q - n)/2 - k, which stays finite at d = 0.

    The value is scale^q times M's term. On a box whose axes span so many
    orders that scale^q overflows, or the c_k, which carry prod b_j,
    underflow, that product is not finite and positive; the value is then
    taken with scale^q in log form (see _scaled_moment). A dual volume
    above the double range is inf.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    n = box.dim
    if q > n + Q_EXCESS_LIMIT:
        raise ValueError(f"no box dual volume for {_label(box, q)}: the "
                         f"erf route takes q up to n + {Q_EXCESS_LIMIT:g}")
    scale = box.half_axes[-1]
    b = box.half_axes / scale
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a b_j below the normal range has lost its bits (or is 0): its
        # log comes from log a_j, and only the log form takes it
        lost = b < _TINY
        log_b = np.where(lost, np.log(box.half_axes) - math.log(scale),
                         np.log(b))
        value = math.nan
        if not lost.any():
            value = q / n * scale ** q * _scaled_moment(b, log_b, q, None)
        log_scale = q * math.log(scale)
        if not 0.0 < value < math.inf:
            value = q / n * _scaled_moment(b, log_b, q, log_scale)
        shift = log_scale + float(np.sum(log_b))
        if not 0.0 < value < math.inf and shift > 0.0:
            # the log form's factor scale^q prod b_j overflows: the value
            # is taken without it and multiplied back, inf past the range
            value = float(q / n * _scaled_moment(b, log_b, q, log_scale - shift)
                          * np.exp(shift))
    return value


def _log_erf(log_z: np.ndarray) -> np.ndarray:
    """log erf(e^log_z), finite where e^log_z underflows: below
    _LOG_ERF_LINEAR, erf(z) is 2 z / sqrt(pi) to within z^2 / 3 relative,
    under half an ulp."""
    exact = np.log(_erf(np.exp(np.maximum(log_z, _LOG_ERF_LINEAR))))
    return np.where(log_z < _LOG_ERF_LINEAR,
                    log_z + math.log(2.0 / math.sqrt(math.pi)), exact)


def _scaled_moment(b: np.ndarray, log_b: np.ndarray, q: float,
                   log_scale: float | None):
    """2 pi^{n/2} M(q) / Gamma((n-q)/2) on the scaled axes b, whose logs
    are log_b (see box_dual_volume). Given log_scale = q log(scale), that
    times scale^q, with scale^q taken inside exponentials: the series drops
    its factor prod b_j and is multiplied by exp(log_scale + sum_j log b_j),
    and each tail node is exp(log_scale - q log x + sum_j log erf(b_j x)),
    with log erf(b_j x) taken by _log_erf(log b_j + log x) where b_j is
    below the normal range. The tail's far end comes from log b_0, so it
    stays finite where b_0 underflows."""
    n = b.size
    x0 = math.sqrt(max(SERIES_REACH ** 2, (q - n) / 2.0) / float(b @ b))
    # c_k: the product over the axes of the series
    # erf(b x) / x = 2/sqrt(pi) sum_m (-b^2)^m b x^{2m} / (m! (2m+1))
    m = np.arange(ERF_SERIES_TERMS)
    factorial = np.cumprod(np.maximum(m, 1), dtype=float)
    c = np.zeros(ERF_SERIES_TERMS)
    c[0] = 1.0
    for bj in b:
        lead = bj if log_scale is None else 1.0
        series = 2.0 / math.sqrt(math.pi) * lead * (-bj * bj) ** m \
            / (factorial * (2 * m + 1))
        c = np.convolve(c, series)[:ERF_SERIES_TERMS]
    k = round((q - n) / 2.0)
    far = m != k
    exps = n + 2.0 * m[far] - q
    head = float(np.sum(c[far] * x0 ** exps / exps))
    pole = 0.0
    if not far.all():
        d = (q - n) / 2.0 - k
        sinc = 0.5 if d == 0.0 else math.sin(math.pi * d) / (2.0 * math.pi * d)
        pole = (-1) ** k * math.gamma(1.0 + k + d) * sinc * c[k] \
            * x0 ** (-2.0 * d)
    u0, width = math.log(x0), min(1.0, PANEL_DECAY / q)
    panels = math.ceil((math.log(_ERF_ONE) - log_b[0] - u0) / width)
    t, w = _gauss_legendre(TAIL_DEGREE)
    u = u0 + width * (np.arange(panels)[:, None] + t).ravel()
    x = np.exp(u)
    weights = np.tile(w, panels)
    end = -q * (u0 + width * panels)  # log X^-q, X the tail's far end
    if log_scale is None:
        nodes = weights * x ** -q * np.prod(_erf(np.outer(b, x)), axis=0)
        rest = math.exp(end)
    else:
        factor = np.exp(log_scale + np.sum(log_b))
        head, pole = factor * head, factor * pole
        lost = b < _TINY
        # a lost b_0 takes the tail past 1 / _TINY, where x overflows
        log_x = u if lost.any() else np.log(x)
        log_erfs = np.sum(np.log(_erf(np.outer(b[~lost], x))), axis=0) \
            + np.sum(_log_erf(log_b[lost, None] + u), axis=0)
        nodes = weights * np.exp(log_scale - q * log_x + log_erfs)
        rest = float(np.exp(log_scale + end))
    tail = width * float(np.sum(nodes)) + rest / q
    return 2.0 * math.pi ** (n / 2.0) \
        * (_rgamma((n - q) / 2.0) * (tail + head) + pole)


def verify_box(box: BoxSpec, q: float) -> BoundsReport:
    """Bracket check: does the exact dual volume fall inside [lower, upper]?

    Raises ValueError, naming the box, when the bracket ends or the dual
    volume are not all finite and positive (say, a product of scaled
    half-axes that underflows to 0 on extreme boxes): there is no bracket
    to check then. box_dual_volume's error for q beyond its range names
    the box too.
    """
    report = box_bounds(box, q)
    observed = box_dual_volume(box, q)
    if not all(0.0 < v < math.inf
               for v in (report.lower, observed, report.upper)):
        raise ValueError(
            f"degenerate bracket for {_label(box, q)}: lower "
            f"{report.lower:.6g}, observed {observed:.6g}, upper "
            f"{report.upper:.6g}; each must be finite and positive")
    passed = report.lower <= observed <= report.upper
    return BoundsReport(lower=report.lower, upper=report.upper,
                        observed=observed, passed=passed, branch=report.branch,
                        constants_used=report.constants_used)


# ---------------------------------------------------------------------------
# volume products


def santalo_product(body: SupportPolytope, grid: SphericalGrid) -> dict:
    """Volume product V(K) V(K*) against its upper bound kappa_n^2 (needs a
    centered body) and the strict lower bound kappa_n^2 / 4^n.

    V(K) is the q = n dual volume on the grid; V(K*) integrates h_K^{-n}
    with support values taken from the vertex representation. The forward
    comparison is skipped (pass flag None) when the centering precondition
    fails; the lower bound is checked either way. One radial pass serves
    V(K) and the centring test, and one vertex enumeration V(K*).
    """
    n = body.dim
    rho, _ = radial_profile(body, grid.nodes)
    stats = radial_stats(rho, grid)
    centered_ok = float(np.linalg.norm(stats["centroid"])) <= \
        1e-3 * stats["circumradius"]
    h = _support_values(body, grid)
    vol = stable_sum(rho ** n * grid.weights) / n
    vol_polar = stable_sum(h ** (-float(n)) * grid.weights) / n
    product = vol * vol_polar
    kappa_sq = unit_ball_volume(n) ** 2
    floor = kappa_sq / 4.0 ** n
    forward = product <= kappa_sq * (1.0 + SANTALO_SLACK) if centered_ok \
        else None
    return {
        "product": product,
        "volume": vol,
        "polar_volume": vol_polar,
        "kappa_sq": kappa_sq,
        "kuperberg_floor": floor,
        "centered": centered_ok,
        "pass_forward": forward,
        "pass_floor": product > floor,
    }


def _support_values(body: SupportPolytope, grid: SphericalGrid):
    """h_K at the grid nodes, from one vertex enumeration."""
    h = support_profile(grid.nodes, vertex_enumeration(body))
    if np.min(h) <= 0.0:
        # 0 is interior, so h_K > 0 everywhere; a violation means vertex
        # enumeration silently degraded on near-degenerate geometry
        raise ValueError("inconsistent vertex enumeration (h_K <= 0); "
                         "body too ill-conditioned for polar integrals")
    return h


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
    h = _support_values(body, grid)
    rho_q2 = q_body_2.radial(grid.nodes)
    v_r_polar = stable_sum(h ** (-r) * rho_q2 ** (n - r) * grid.weights) / n
    return v_q ** (1.0 / q) * v_r_polar ** (1.0 / r)

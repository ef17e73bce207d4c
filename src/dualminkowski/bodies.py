"""Convex bodies as halfspace intersections with a fixed normal set.

A body K = {x : <x, v_i> <= h_i} is stored by its unit normals and positive
support numbers. The normal set never shrinks during optimization (redundant
halfspaces are tolerated and self-correct downstream); pruning happens only at
export. Star bodies carry a positive radial function directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .groups import MERGE_TOL, OrthogonalGroup
from .sphere import (SphericalGrid, first_of_clusters, nearest_within,
                     padded, probe_grid, product_blocks, require_finite)

__all__ = [
    "SupportPolytope",
    "StarBody",
    "radial_eval",
    "radial_profile",
    "RadialKernel",
    "support_profile",
    "geometry_stats",
    "radial_stats",
    "is_invariant",
    "vertex_enumeration",
    "polar_body",
    "prune",
    "active_part",
    "ball_polytope",
    "cube_polytope",
    "shifted_ball_polytope",
]

_POS_DENOM_TOL = 1e-14
# prune keeps the halfspaces whose slack is at most this fraction of max h
PRUNE_TOL = 1e-9
# is_invariant accepts a largest radial deviation up to this
INVARIANCE_TOL = 1e-9
# StarBody.is_invariant accepts a largest radial deviation up to this
STAR_INVARIANCE_TOL = 1e-8


@dataclass(frozen=True)
class SupportPolytope:
    """K = {x : <x, v_i> <= h_i} with 0 in the interior.

    Invariants enforced at construction: finite entries, unit normals,
    h_i >= h_floor > 0, at least n+1 halfspaces, and the normals positively
    span R^n, which makes K bounded with 0 interior. Positive spanning is
    checked exactly: max_i <u, v_i> > 0 for every u holds if and only if the
    origin is strictly inside the convex hull of the normals (see
    _uncovered_direction).
    """

    dim: int
    normals: np.ndarray
    support: np.ndarray
    h_floor: float = 0.0

    def __post_init__(self):
        normals = np.ascontiguousarray(np.asarray(self.normals, dtype=float))
        support = np.ascontiguousarray(np.asarray(self.support, dtype=float))
        if normals.ndim != 2 or normals.shape[1] != self.dim:
            raise ValueError(f"normals must have shape (N, {self.dim})")
        if support.shape != (normals.shape[0],):
            raise ValueError("support numbers must match normal count")
        if normals.shape[0] < self.dim + 1:
            raise ValueError("need at least n+1 halfspaces")
        require_finite("normals", normals)
        require_finite("support", support)
        if not math.isfinite(self.h_floor):
            raise ValueError(f"h_floor must be finite, got {self.h_floor!r}")
        norms = np.linalg.norm(normals, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("normals must be unit vectors within 1e-10")
        floor = self.h_floor
        if floor <= 0.0:
            if np.any(support <= 0.0):
                i = int(np.argmax(support <= 0.0))
                raise ValueError(
                    f"support number {i} = {support[i]:.3e} is not positive")
            floor = 1e-6 * float(np.exp(np.mean(np.log(support))))
            object.__setattr__(self, "h_floor", floor)
        if np.any(support < floor):
            i = int(np.argmin(support))
            raise ValueError(
                f"support number {i} = {support[i]:.3e} below floor {floor:.3e}"
            )
        u = _uncovered_direction(normals)
        if u is not None:
            raise ValueError(
                f"normals do not positively span R^{self.dim}: direction {u} uncovered"
            )
        normals.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "support", support)

    @property
    def facet_count(self) -> int:
        return self.normals.shape[0]

    def with_support(self, new_h: np.ndarray) -> "SupportPolytope":
        return replace(self, support=np.asarray(new_h, dtype=float))


def _axis_certificate(normals: np.ndarray) -> bool:
    """A sufficient test, with no hull, that unit normals positively span.

    Let t = 1 - 1/(2n) + 1e-9. The test holds when for each axis k some
    normal has v_k > t and some has v_k < -t. A normal v with v_k > t has
    |v - e_k|^2 = |v|^2 + 1 - 2 v_k < 1/n, because the margin 1e-9 covers
    |v|^2 - 1 <= 2.1e-10 under the 1e-10 unit-norm tolerance; likewise for
    -e_k. Every unit u has some |u_k| >= 1/sqrt(n), as its squares sum to
    1; with s the sign of u_k and v a normal within 1/sqrt(n) of s e_k,
    <u, v> = |u_k| + <u, v - s e_k> > 0. So max_i <u, v_i> > 0 for every u.
    """
    t = 1.0 - 0.5 / normals.shape[1] + 1e-9
    return bool(np.all(np.max(normals, axis=0) > t) and
                np.all(np.min(normals, axis=0) < -t))


def _uncovered_direction(normals: np.ndarray) -> np.ndarray | None:
    """A unit u with max_i <u, v_i> <= 0, or None when the normals
    positively span.

    _axis_certificate decides most spanning sets without Qhull; when it
    fails, Qhull decides. The normals span exactly when the origin is
    strictly inside their convex hull, whose facets <w, x> + c = 0 (w the
    outward unit normal) all have c < 0. The hull of the at most 2n normals
    that maximise +-e_k is tried first; when it holds the origin strictly
    inside, so does the hull of all. Else the hull of all the normals
    decides. A facet with c >= 0 names u = w, as max_i <w, v_i> = -c <= 0.
    Qhull fails on a flat set: the normals then lie in the hyperplane
    through their mean orthogonal to the last right singular vector w, and
    u = +-w, signed away from the mean, is uncovered.
    """
    if _axis_certificate(normals):
        return None
    from scipy.spatial import ConvexHull, QhullError

    extremes = np.unique(np.concatenate([np.argmax(normals, axis=0),
                                         np.argmin(normals, axis=0)]))
    try:
        if np.all(ConvexHull(normals[extremes]).equations[:, -1] < 0.0):
            return None
    except QhullError:
        pass  # fewer than n + 1 extremes, or a flat set of them
    try:
        facets = ConvexHull(normals).equations
    except QhullError:
        mean = np.mean(normals, axis=0)
        w = np.linalg.svd(normals - mean, full_matrices=False)[2][-1]
        return -w if w @ mean > 0.0 else w
    worst = int(np.argmax(facets[:, -1]))
    return facets[worst, :-1] if facets[worst, -1] >= 0.0 else None


def radial_profile(body: SupportPolytope, points: np.ndarray):
    """Radial function and supporting-facet index at each unit direction.

    rho(u) = min over {i : <u, v_i> > 0} of h_i / <u, v_i>; the argmin (ties
    to the smallest index) identifies the facet whose supporting hyperplane
    contains the boundary point rho(u) u. Evaluation is blocked by
    product_blocks, and each block of products is divided in place and freed
    before the next, so one block of sphere.BLOCK_CELLS ratios is held at a
    time; a zero pad product is no positive denominator.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    rho = np.empty(m)
    idx = np.empty(m, dtype=np.intp)
    support = padded(body.support, 1.0)
    for start, ratios in product_blocks(pts, body.normals):
        # ~(A > tol), not A <= tol: a NaN product is no denominator either
        off = ~(ratios > _POS_DENOM_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(support, ratios, out=ratios)
        ratios[off] = np.inf
        bi = np.argmin(ratios, axis=1)
        idx[start:start + bi.size] = bi
        rho[start:start + bi.size] = ratios[np.arange(bi.size), bi]
        del ratios, off
    if not np.all(np.isfinite(rho)):
        bad = int(np.argmax(~np.isfinite(rho)))
        raise ValueError(
            f"no positive denominator at direction {pts[bad]}; "
            "normals do not positively span"
        )
    return rho, idx


# Relative slack on the pruning bound: a computed h / A carries under 1e-15
# relative rounding, so the true exit facet always clears the loosened bound.
_PRUNE_SLACK = 1e-12
# Lists are built for 0.95 * min(h) / max(h), so r may fall 5% before a
# rebuild (~20 passes); a pass reads only the rows its own r can need.
_REBUILD_MARGIN = 0.95


class RadialKernel:
    """radial_profile on fixed points and normals, for many support vectors.

    The pass is pruned exactly. With A = points @ normals.T and
    r = min(h) / max(h), facet i can attain min_j h_j / A[u, j] at u only if
    A[u, i] >= r * max_j A[u, j]. Each point keeps the facets that clear
    this bound at a built ratio and radial_profile's denominator test
    A > _POS_DENOM_TOL, in order of falling A. The lists are built, and
    rebuilt when an h arrives whose r is below the built ratio, from A in
    product_blocks' row blocks: each block's candidates become that block's
    sorted lists, and its products are freed, before the next block is
    formed, so A is never held whole; the blocks' lists are then copied
    into the finished lists. A point with fewer candidates than the widest
    repeats its smallest-product one. Row k of the lists has a reach, the
    largest A[u, i] / max_j A[u, j] over the candidates it holds (repeats
    excluded), which does not grow with k, and a pass divides h by A only
    on the rows whose reach clears its own r (loosened by the same
    slack). Every facet attaining the minimum is in those rows, and every
    other entry there is a real facet of its point, so the division and
    the minimum are radial_profile's: rho and the exit facets (ties to the
    smallest index) equal radial_profile's bit for bit.
    """

    def __init__(self, points: np.ndarray, normals: np.ndarray):
        self.points, self.normals = points, normals
        # (built ratio, facet indices, inner products, reach of each row);
        # the middle two are (width, points), one point per column
        self.lists = None
        self.passes = 0
        self.rebuilds = 0
        self.cells = 0  # node-facet ratios the passes computed

    def _build(self, ratio: float) -> None:
        # each block of products becomes its own sorted lists before the
        # next block is formed: (first point, facets, products), each of
        # shape (the block's widest count, the block's points)
        n = self.points.shape[0]
        counts = np.empty(n, dtype=np.intp)
        reach = np.zeros(0)
        blocks = []
        for start, prods in product_blocks(self.points, self.normals):
            top = np.max(prods, axis=1)
            if not np.all(top > _POS_DENOM_TOL):
                raise ValueError(
                    f"no positive denominator at point "
                    f"{start + int(np.argmin(top))}; "
                    "normals do not positively span")
            # the slack makes the bound strict for the exit facet; no zero
            # pad clears the cut
            cut = np.maximum((ratio * (1.0 - _PRUNE_SLACK)) * top,
                             _POS_DENOM_TOL)
            r, c = np.divmod(np.flatnonzero(prods > cut[:, None]),
                             prods.shape[1])
            count = np.bincount(r, minlength=len(prods))
            rows = np.arange(r.size) - (np.cumsum(count) - count)[r]
            values = np.zeros((int(count.max()), len(prods)))
            values[rows, r] = prods[r, c]
            facets = np.zeros(values.shape, dtype=np.intp)
            facets[rows, r] = c
            del prods, r, c, rows
            # order each point's candidates by falling product; the zeros
            # of the padding sort last and reach nothing
            order = np.argsort(-values, axis=0)
            values = np.take_along_axis(values, order, axis=0)
            facets = np.take_along_axis(facets, order, axis=0)
            del order
            # the block's part of each row's reach, taken before the
            # repeats are padded in
            part = np.max(values / values[0], axis=1)
            if part.size > reach.size:
                reach = np.concatenate([reach,
                                        np.zeros(part.size - reach.size)])
            np.maximum(reach[:part.size], part, out=reach[:part.size])
            counts[start:start + count.size] = count
            blocks.append((start, facets, values))
        shape = reach.size, n
        values = np.empty(shape)
        facets = np.empty(shape, dtype=np.intp)
        while blocks:
            start, cols, products = blocks.pop(0)
            at = slice(start, start + products.shape[1])
            values[:len(products), at] = products
            facets[:len(cols), at] = cols
        del cols, products
        # pad each point with repeats of its smallest-product candidate (a
        # real facet, so neither the minimum nor the exit facet can change)
        pad = np.arange(shape[0])[:, None] >= counts
        last = counts - 1, np.arange(n)
        np.copyto(facets, facets[last], where=pad)
        np.copyto(values, values[last], where=pad)
        self.lists = ratio, facets, values, reach
        self.rebuilds += 1

    def profile(self, h: np.ndarray, want_idx: bool = True):
        """(rho, exit facets) at every point; the exit facets are None
        unless want_idx."""
        self.passes += 1
        low, high = np.min(h), np.max(h)
        if not 0.0 < low <= high < np.inf:
            raise ValueError("support numbers must be positive and finite")
        if self.lists is None or low / high < self.lists[0]:
            self._build(_REBUILD_MARGIN * float(low / high))
        _, cols, values, reach = self.lists
        # row 0 holds each point's largest product, so width >= 1
        width = np.count_nonzero(reach > (low / high) * (1.0 - _PRUNE_SLACK))
        ratios = h[cols[:width]]
        ratios /= values[:width]
        self.cells += ratios.size
        rho = np.min(ratios, axis=0)
        if not want_idx:
            return rho, None
        # the dense argmin's first-index rule: smallest facet attaining rho
        return rho, np.min(np.where(ratios == rho, cols[:width], h.size),
                           axis=0)


def radial_eval(body: SupportPolytope, u: np.ndarray) -> tuple[float, int]:
    """Radial value and facet index for one direction."""
    rho, idx = radial_profile(body, np.asarray(u, dtype=float)[None])
    return float(rho[0]), int(idx[0])


def support_profile(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Support values h(u) = max_j <x_j, u> of the hull of the vertices x_j
    at each point u, one block of products at a time: np.max(points @
    vertices.T, axis=1), the vertices padded with copies of the first, so
    that no zero pad product enters the max."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts))
    for start, block in product_blocks(pts, padded(vertices, vertices[0])):
        out[start:start + len(block)] = np.max(block, axis=1)
        del block
    return out


def vertex_enumeration(body: SupportPolytope) -> np.ndarray:
    """All vertices of the halfspace intersection (origin used as the
    interior point, which the positivity floor guarantees feasible)."""
    from scipy.spatial import HalfspaceIntersection

    halfspaces = np.column_stack([body.normals, -body.support])
    hs = HalfspaceIntersection(halfspaces, np.zeros(body.dim))
    verts = hs.intersections
    # Qhull emits one point per dual facet; merge its duplicates
    scale = float(np.max(np.abs(verts))) or 1.0
    return verts[first_of_clusters(verts, 1e-9 * scale)]


def polar_body(body: SupportPolytope) -> SupportPolytope:
    """The polar K* = {x : <x, y> <= 1 for all y in K} as a halfspace body.

    Vertices x_j of K become the constraints <x, x_j> <= 1, i.e. normals
    x_j/|x_j| with support numbers 1/|x_j|.
    """
    verts = vertex_enumeration(body)
    norms = np.linalg.norm(verts, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("vertex at the origin; polar undefined")
    return SupportPolytope(dim=body.dim, normals=verts / norms[:, None],
                           support=1.0 / norms)


def _near_active(body: SupportPolytope,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the halfspaces whose slack h_i - max_K <x, v_i> is at most
    tol * max h, the maximum taken over the enumerated vertices; those
    vertices). The facet-vertex products are taken one block at a time."""
    verts = vertex_enumeration(body)
    achieved = support_profile(body.normals, verts)
    scale = float(np.max(body.support))
    return achieved >= body.support - tol * scale, verts


def prune(body: SupportPolytope) -> SupportPolytope:
    """Drop halfspaces whose constraint is redundant (h_K(v_i) < h_i)."""
    active, _ = _near_active(body, PRUNE_TOL)
    if not np.any(active):
        raise ValueError("pruning removed every facet")
    return SupportPolytope(dim=body.dim, normals=body.normals[active],
                           support=body.support[active])


# Radial probes skip halfspaces with slack above this fraction of max h. A
# skipped halfspace i with slack s has h_i / <u, v_i> >= rho(u) + s / <u, v_i>
# wherever <u, v_i> > 0, a relative excess above s / h_i > 1e-6: far above
# the vertex error of Qhull and the rounding of a ratio, so it never attains
# or ties the minimum, and rho is unchanged bit for bit.
_PROBE_SLACK = 1e-6


def active_part(body: SupportPolytope
                ) -> tuple[SupportPolytope, np.ndarray | None]:
    """(the same body on the halfspaces that can attain its radial function,
    the vertices of the body that Qhull enumerated).

    The kept halfspaces keep their order, so radial_profile returns the same
    rho as on the full body (facet indices refer to the kept ones). When
    Qhull fails every halfspace is kept and the vertices are None.
    """
    from scipy.spatial import QhullError

    try:
        keep, verts = _near_active(body, _PROBE_SLACK)
    except QhullError:
        keep, verts = np.ones(body.facet_count, dtype=bool), None
    return replace(body, normals=body.normals[keep],
                   support=body.support[keep]), verts


def geometry_stats(body: SupportPolytope, grid: SphericalGrid) -> dict:
    """radial_stats of the body's radial function on the grid nodes."""
    rho, _ = radial_profile(body, grid.nodes)
    return radial_stats(rho, grid)


def radial_stats(rho: np.ndarray, grid: SphericalGrid) -> dict:
    """Centroid and circumradius estimators of a body whose radial function
    takes the values rho at the grid nodes.

    The centroid comes from the cone decomposition over grid nodes (each node
    contributes a cone of volume w rho^n / n with centroid at n/(n+1) rho u);
    the circumradius is the largest rho. These are probe-grid estimators
    and feed diagnostics and the centring test of santalo_product.
    """
    n = grid.dim
    cone_vol = grid.weights * rho ** n / n
    total = float(np.sum(cone_vol))
    centroid = (cone_vol * rho)[:, None] * grid.nodes * (n / (n + 1.0))
    centroid = centroid.sum(axis=0) / total
    return {"centroid": centroid, "circumradius": float(np.max(rho))}


def is_invariant(body: SupportPolytope, group: OrthogonalGroup,
                 grid: SphericalGrid | None = None,
                 active: tuple[SupportPolytope, np.ndarray | None] | None
                 = None) -> tuple[bool, float, str]:
    """Whether rho_K(g u) == rho_K(u) for every u and group element g.

    Returns (deviation <= INVARIANCE_TOL, deviation, method). Both methods
    read only active_part(body); a caller that already has it passes it as
    active.

    "constraint-match" is exact. K = {x : <x, v_i> <= h_i} over the active
    halfspaces, so g K = {x : <x, g v_i> <= h_i}. sphere.nearest_within
    matches every image g v_i (all g, all i) with its nearest normal v_j;
    delta is the largest |g v_i - v_j| and eps the largest |h_i - h_j|.
    With R the largest vertex norm, each x in K has <x, g v_i> <= h_j +
    R delta <= h_i + eps + R delta, so t K lies in g K for t = h_min /
    (h_min + eps + R delta), i.e. rho_K(g^-1 u) >= t rho_K(u). G holds g^-1
    too, so |rho_K(g u) - rho_K(u)| <= (1 - t) R <= R (eps + R delta) /
    h_min for every u, and that bound is the deviation. It decides when it
    is at most INVARIANCE_TOL. The match looks only within
    2 INVARIANCE_TOL h_min / R^2 of each image: an image with no normal
    that close has a bound of at least R^2 delta / h_min >
    2 INVARIANCE_TOL, and goes to the probe, where the bound would have
    sent it. The reach is at most groups.MERGE_TOL, which keeps the search
    local on a body of circumradius below about 2e-3; there an image that
    far from every normal goes to the probe as well.

    "probe" decides otherwise, and when Qhull failed on the body: the
    largest |rho_K(g u) - rho_K(u)| over the grid nodes u.
    """
    probed, verts = active_part(body) if active is None else active
    if verts is not None:
        images = group.apply(probed.normals).reshape(-1, body.dim)
        radius = float(np.max(np.linalg.norm(verts, axis=1)))
        h_min = float(np.min(probed.support))
        reach = min(2.0 * INVARIANCE_TOL * h_min / radius ** 2, MERGE_TOL)
        match, gap = nearest_within(probed.normals, images, reach)
        if np.all(match >= 0):
            eps = float(np.max(np.abs(np.tile(probed.support, group.order)
                                      - probed.support[match])))
            bound = radius * (eps + radius * float(np.max(gap))) / h_min
            if bound <= INVARIANCE_TOL:
                return True, bound, "constraint-match"
    if grid is None:
        grid = probe_grid(body.dim)
    rho, _ = radial_profile(probed, grid.nodes)
    rho_all, _ = radial_profile(probed,
                                group.apply(grid.nodes).reshape(-1, body.dim))
    deviations = np.abs(rho_all.reshape(group.order, -1) - rho[None, :])
    worst = float(np.max(deviations))
    return worst <= INVARIANCE_TOL, worst, "probe"


def ball_polytope(directions: np.ndarray, radius: float = 1.0) -> SupportPolytope:
    """Ball-like body: h_i = radius on the given unit normal set."""
    dirs = np.asarray(directions, dtype=float)
    return SupportPolytope(dim=dirs.shape[1], normals=dirs,
                           support=np.full(dirs.shape[0], float(radius)))


def cube_polytope(n: int) -> SupportPolytope:
    """The cube [-1, 1]^n with its 2n axis normals."""
    normals = np.vstack([np.eye(n), -np.eye(n)])
    return SupportPolytope(dim=n, normals=normals, support=np.ones(2 * n))


def shifted_ball_polytope(directions: np.ndarray, radius: float,
                          center: np.ndarray) -> SupportPolytope:
    """Halfspace approximation of a ball of given radius centered off-origin.

    Support numbers h(v) = radius + <center, v>; requires |center| < radius so
    the origin stays interior. The radial minimum is attained opposite the
    center, which makes this the canonical unique-minimal-radius base body.
    """
    dirs = np.asarray(directions, dtype=float)
    center = np.asarray(center, dtype=float)
    if np.linalg.norm(center) >= radius:
        raise ValueError("center must satisfy |center| < radius")
    h = radius + dirs @ center
    return SupportPolytope(dim=dirs.shape[1], normals=dirs, support=h)


# ---------------------------------------------------------------------------
# star bodies


@dataclass(frozen=True)
class StarBody:
    """A star body given by a positive radial function on unit vectors,
    checked positive and finite on the probe grid. The radial callable must
    be vectorized: (N, n) unit rows in, N positive values out.
    """

    dim: int
    radial_fn: object

    def __post_init__(self):
        vals = self.radial(probe_grid(self.dim).nodes)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("radial function must be positive and finite")

    def radial(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.radial_fn(pts), dtype=float)

    def radial_homogeneous(self, points: np.ndarray) -> np.ndarray:
        """Radial extended to nonzero points by homogeneity of degree -1."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms < 1e-14):
            raise ValueError("radial function undefined at zero")
        return self.radial(pts / norms[:, None]) / norms

    @staticmethod
    def ball(n: int, radius: float = 1.0) -> "StarBody":
        r = float(radius)
        return StarBody(dim=n, radial_fn=lambda pts: np.full(pts.shape[0], r))

    @staticmethod
    def ellipsoid(half_axes) -> "StarBody":
        axes = np.asarray(half_axes, dtype=float)
        if np.any(axes <= 0.0):
            raise ValueError("half axes must be positive")

        def rho(pts):
            return 1.0 / np.sqrt(np.sum((pts / axes[None, :]) ** 2, axis=1))

        return StarBody(dim=axes.size, radial_fn=rho)

    @staticmethod
    def from_polytope(body: SupportPolytope) -> "StarBody":
        def rho(pts):
            values, _ = radial_profile(body, pts)
            return values

        return StarBody(dim=body.dim, radial_fn=rho)

    def transformed(self, phi: np.ndarray) -> "StarBody":
        """The image phi Q, via rho_{phi Q}(x) = rho_Q(phi^-1 x)."""
        phi_inv = np.linalg.inv(np.asarray(phi, dtype=float))
        base = self

        def rho(pts):
            return base.radial_homogeneous(pts @ phi_inv.T)

        return StarBody(dim=self.dim, radial_fn=rho)

    def is_invariant(self, group: OrthogonalGroup) -> tuple[bool, float]:
        probe = probe_grid(self.dim)
        vals = self.radial(probe.nodes)
        worst = 0.0
        for g in group.elements:
            worst = max(worst, float(np.max(np.abs(self.radial(probe.nodes @ g.T) - vals))))
        return worst <= STAR_INVARIANCE_TOL, worst

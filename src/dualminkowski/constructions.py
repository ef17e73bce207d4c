"""Generators of non-origin-symmetric, centered, group-invariant bodies.

The workhorse takes a base body with a unique radial extremum, applies a
generically-sampled rotation, and intersects the orbit of the result under
the group: the constraint pool is group-stable by construction, and for
almost every rotation the extremal boundary point has no antipodal partner
in its orbit, which breaks origin symmetry. A certificate quantifies both
the achieved invariance and the measured asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import SupportPolytope, active_part, is_invariant, radial_profile
from .groups import OrthogonalGroup, certify
from .sphere import (SphericalGrid, first_of_clusters, greedy_keep,
                     near_pairs, probe_grid)

__all__ = [
    "AsymmetryCertificate",
    "random_generic_rotation",
    "orbit_intersection_body",
    "orbit_intersection_body_circum",
    "dirichlet_voronoi_cone",
    "DirichletVoronoiCone",
    "fundamental_domain_check",
    "certify_asymmetry",
    "radial_extremum_is_unique",
]

# radial_extremum_is_unique counts a probe node as extremal when its radius
# is within this relative margin of the extremum
EXTREMUM_MARGIN = 1e-4
# random_generic_rotation draws at most ROTATION_TRIES rotations h, and
# accepts one whose -h z lies at least ROTATION_MARGIN from the orbit of h z
ROTATION_TRIES = 200
ROTATION_MARGIN = 1e-3
# dirichlet_voronoi_cone rejects an anchor z with some g z (g not the
# identity) within ANCHOR_MARGIN of z or of -z
ANCHOR_MARGIN = 1e-6
# a point lies in a DirichletVoronoiCone when its margin is at most CONE_TOL,
# and in the cone's interior when its margin is below -CONE_TOL
CONE_TOL = 1e-9


@dataclass(frozen=True)
class AsymmetryCertificate:
    """Measured asymmetry of a body together with its invariance deviation.

    max_gap is the largest |rho(u) - rho(-u)| over probe nodes. The body is
    declared non-origin-symmetric when the gap clearly dominates the noise
    floor set by the invariance deviation. invariance_method names the
    bodies.is_invariant method that gave the deviation ("none" when no
    invariance was measured). active_constraints counts the halfspaces the
    probe evaluated (those of bodies.active_part).
    """

    max_gap: float
    witness: np.ndarray
    invariance_deviation: float
    invariance_method: str
    active_constraints: int

    @property
    def non_origin_symmetric(self) -> bool:
        return self.max_gap > 10.0 * self.invariance_deviation + 1e-6


def certify_asymmetry(body: SupportPolytope, grid: SphericalGrid | None = None,
                      invariance: tuple[float, str] = (0.0, "none"),
                      active: tuple[SupportPolytope, np.ndarray | None]
                      | None = None) -> AsymmetryCertificate:
    """Probe |rho(u) - rho(-u)| over a grid and report the worst direction.

    invariance is the (deviation, method) that bodies.is_invariant returned
    for the body. Only the halfspaces of active_part(body) are evaluated; a
    caller that already has it passes it as active.
    """
    if grid is None:
        grid = probe_grid(body.dim)
    probed, _ = active_part(body) if active is None else active
    rho_pos, _ = radial_profile(probed, grid.nodes)
    rho_neg, _ = radial_profile(probed, -grid.nodes)
    gaps = np.abs(rho_pos - rho_neg)
    i = int(np.argmax(gaps))
    return AsymmetryCertificate(max_gap=float(gaps[i]), witness=grid.nodes[i],
                                invariance_deviation=invariance[0],
                                invariance_method=invariance[1],
                                active_constraints=probed.facet_count)


def radial_extremum_is_unique(body: SupportPolytope, mode: str = "min",
                              grid: SphericalGrid | None = None):
    """Check (on a probe grid) that the radial extremum is attained at a
    single direction cluster, with EXTREMUM_MARGIN to the runner-up.

    Returns (ok, extremal direction). The hypothesis in the generator is
    open-dense; this margin test makes it checkable on discrete data.
    """
    if grid is None:
        grid = probe_grid(body.dim)
    rho, _ = radial_profile(body, grid.nodes)
    if mode == "min":
        star = float(np.min(rho))
        near = rho <= star + EXTREMUM_MARGIN * star
        arg = int(np.argmin(rho))
    elif mode == "max":
        star = float(np.max(rho))
        near = rho >= star - EXTREMUM_MARGIN * star
        arg = int(np.argmax(rho))
    else:
        raise ValueError("mode must be 'min' or 'max'")
    u_star = grid.nodes[arg]
    cluster_radius = math.sqrt(8.0 * math.pi / grid.node_count)  # ~2 spacings
    cos_floor = 1.0 - cluster_radius ** 2 / 2.0
    ok = bool(np.all(grid.nodes[near] @ u_star >= cos_floor))
    return ok, u_star


def random_generic_rotation(group: OrthogonalGroup, z: np.ndarray,
                            seed: int = 0) -> np.ndarray:
    """Haar-sample h in O(n) until -h z stays ROTATION_MARGIN away from the
    orbit of h z, in at most ROTATION_TRIES draws. The rejected set has
    measure zero, so acceptance is near-immediate; rejection keeps the
    almost-every-rotation hypothesis checkable.
    """
    z = np.asarray(z, dtype=float)
    z = z / np.linalg.norm(z)
    rng = np.random.default_rng(seed)
    for _ in range(ROTATION_TRIES):
        m = rng.standard_normal((group.dim, group.dim))
        qmat, r = np.linalg.qr(m)
        h = qmat * np.sign(np.diag(r))[None, :]
        hz = h @ z
        orbit = group.apply(hz[None])[:, 0, :]
        gap = float(np.min(np.linalg.norm(orbit + hz[None], axis=1)))
        if gap >= ROTATION_MARGIN:
            return h
    raise ValueError(f"no generic rotation found in {ROTATION_TRIES} tries "
                     f"(margin {ROTATION_MARGIN:g})")


def _pool_orbit_constraints(group: OrthogonalGroup, base: SupportPolytope,
                            rotation: np.ndarray) -> SupportPolytope:
    """Constraints of the intersection over the group orbit of rotation@base.

    Every g contributes the rotated constraints (normal g @ h @ v_i, same
    support number). Near-duplicate normals merge by the package's one rule
    (sphere.near_pairs and greedy_keep at 1e-9, in the order of the rows
    sorted on their coordinates rounded to 9 decimals, which fixes the
    output order): a merged row gives its support number to the last kept
    row within 1e-9 before it, which keeps the smaller one, so the set
    stays group-stable.
    """
    rotated = base.normals @ rotation.T
    normals = np.concatenate(group.apply(rotated), axis=0)
    support = np.tile(base.support, group.order)
    order = np.lexsort(np.round(normals, 9).T)
    normals, support = normals[order], support[order]
    earlier, later, dist = near_pairs(normals, 1e-9, None)
    close = dist <= 1e-9
    earlier, later = earlier[close], later[close]
    keep = greedy_keep(len(normals), earlier, later)
    merged = keep[earlier] & ~keep[later]
    owner = np.full(len(normals), -1)
    np.maximum.at(owner, later[merged], earlier[merged])
    kept_support = support.copy()
    np.minimum.at(kept_support, owner[~keep], support[~keep])
    return SupportPolytope(dim=base.dim, normals=normals[keep],
                           support=kept_support[keep])


def _checked_group(group: OrthogonalGroup) -> None:
    cert = certify(group)
    if not cert.admissible_for_asymmetric_construction():
        raise ValueError(
            "group must have no nonzero fixed point and must not contain -I "
            f"(certificate: {cert})"
        )


def _certificate(body: SupportPolytope, group: OrthogonalGroup,
                 grid: SphericalGrid | None) -> AsymmetryCertificate:
    """Both certificates of a pooled body, on one active_part."""
    active = active_part(body)
    _, deviation, method = is_invariant(body, group, grid, active=active)
    return certify_asymmetry(body, grid, invariance=(deviation, method),
                             active=active)


def orbit_intersection_body(group: OrthogonalGroup, base: SupportPolytope,
                            seed: int = 0, grid: SphericalGrid | None = None):
    """Invariant body from a base with unique minimal radius.

    Returns (body, certificate). The intersection of the rotated orbit is
    group-invariant by constraint pooling; the unique inner touching point
    of the base guarantees (for the generically sampled rotation) a boundary
    point whose antipode is interior, certifying non-symmetry.
    """
    _checked_group(group)
    ok, u_min = radial_extremum_is_unique(base, "min", grid=grid)
    if not ok:
        raise ValueError("base body lacks a unique minimal radius "
                         f"(margin {EXTREMUM_MARGIN:g})")
    rotation = random_generic_rotation(group, u_min, seed=seed)
    body = _pool_orbit_constraints(group, base, rotation)
    cert = _certificate(body, group, grid)
    return body, cert


def orbit_intersection_body_circum(group: OrthogonalGroup, base: SupportPolytope,
                                   seed: int = 0,
                                   grid: SphericalGrid | None = None):
    """Dual variant: base with unique maximal radius.

    The provable witness here is one-sided: the antipode of the rotated outer
    touching point stays strictly inside (rho_K(-hz) < max rho_C), because
    -hz already misses the rotated base copy. The touch radius rho_K(hz)
    itself drops below max rho_C for any fixed-point-free group, since hz
    would have to survive every rotated copy to stay on the boundary; it is
    recorded for diagnostics but not asserted.
    """
    _checked_group(group)
    ok, u_max = radial_extremum_is_unique(base, "max", grid=grid)
    if not ok:
        raise ValueError("base body lacks a unique maximal radius "
                         f"(margin {EXTREMUM_MARGIN:g})")
    rho_max, _ = radial_profile(base, u_max[None])
    rotation = random_generic_rotation(group, u_max, seed=seed)
    body = _pool_orbit_constraints(group, base, rotation)
    cert = _certificate(body, group, grid)
    hz = rotation @ u_max
    rho_at, _ = radial_profile(body, hz[None])
    rho_anti, _ = radial_profile(body, -hz[None])
    checks = {
        "touch_radius": float(rho_at[0]),
        "base_max_radius": float(rho_max[0]),
        "antipodal_radius": float(rho_anti[0]),
        "antipode_interior": bool(rho_anti[0] < rho_max[0] - 1e-9),
    }
    return body, cert, checks


# ---------------------------------------------------------------------------
# Dirichlet-Voronoi fundamental cone


@dataclass(frozen=True)
class DirichletVoronoiCone:
    """Polyhedral cone {x : <g z - z, x> <= 0 for all g}, a fundamental
    domain closure for the group action (all constraints pass through 0)."""

    anchor: np.ndarray
    normals: np.ndarray  # rows g z - z, duplicates merged, g != identity

    def margin(self, points: np.ndarray) -> np.ndarray:
        """The largest <n, x> over the constraints, per point; -inf for
        the cone of no constraints, the whole space."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.normals.shape[0] == 0:
            return np.full(pts.shape[0], -np.inf)
        return np.max(pts @ self.normals.T, axis=1)


def dirichlet_voronoi_cone(group: OrthogonalGroup,
                           anchor: np.ndarray) -> DirichletVoronoiCone:
    """Fundamental cone of the orbit of a generic unit anchor point.

    Genericity required of the anchor: g z != z and g z != -z for every
    non-identity g, with ANCHOR_MARGIN; callers should perturb and retry
    on rejection. One homogeneous halfspace per non-identity element, with
    duplicate normals merged.
    """
    z = np.asarray(anchor, dtype=float)
    z = z / np.linalg.norm(z)
    eye = np.eye(group.dim)
    gz = np.array([g @ z for g in group.elements
                   if np.max(np.abs(g - eye)) > 1e-12]).reshape(-1, group.dim)
    gaps = np.linalg.norm(np.stack([gz - z, gz + z]), axis=2)
    if np.any(gaps <= ANCHOR_MARGIN):
        raise ValueError(
            "anchor is non-generic for this group (orbit point collides "
            "with the anchor or its antipode); perturb and retry"
        )
    normals = gz - z
    keep = first_of_clusters(normals, 1e-9)
    return DirichletVoronoiCone(anchor=z, normals=normals[keep])


def fundamental_domain_check(group: OrthogonalGroup, cone: DirichletVoronoiCone,
                             sample_count: int = 10000, seed: int = 0) -> dict:
    """Monte-Carlo check of the tiling property: every sampled point lies in
    some rotated copy of the cone, and in at most one copy's interior."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((sample_count, group.dim))
    covered = np.zeros(sample_count, dtype=bool)
    interior_hits = np.zeros(sample_count, dtype=int)
    for g in group.elements:
        margin = cone.margin(pts @ g)  # at g^-1 x (g^-1 = g^T)
        covered |= margin <= CONE_TOL
        interior_hits += margin < -CONE_TOL
    return {
        "sample_count": sample_count,
        "covered": int(np.sum(covered)),
        "max_interior_hits": int(np.max(interior_hits)),
        "all_covered": bool(np.all(covered)),
        "interiors_disjoint": bool(np.max(interior_hits) <= 1),
    }

"""Dual mixed volumes, facet-atomized dual curvature measures, and the
entropy functional driving the solver.

For a halfspace body the dual curvature measure concentrates on the facet
normals, so it is represented as one atom per normal: each quadrature node u
contributes its integrand value to the facet whose supporting hyperplane
contains the boundary point rho(u) u. Two independent evaluation routes are
provided and cross-checked by acceptance criterion 4: spherical-grid binning,
and for n = 3 the boundary integral over each facet, whose edges come from
the convex hull of the polar points v_i / h_i, by a Gauss-Legendre rule that
is exact at q = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import StarBody, SupportPolytope, radial_profile
from .sphere import SphericalGrid, product_blocks, row_slices, stable_sum

__all__ = [
    "MeasureSpec",
    "dual_mixed_volume",
    "dual_curvature_measure",
    "lp_dual_curvature_measure",
    "dual_curvature_via_boundary",
    "entropy_state",
    "entropy_gradient",
    "affine_invariance_check",
    "transform_polytope",
]

# dual_curvature_via_boundary integrates each fan triangle with this many
# Gauss-Legendre points per axis; on the criterion-4 bodies 16 agrees with
# 40 to 5.7e-11 per facet, and 12 only to 2.4e-8
BOUNDARY_DEGREE = 16


@dataclass(frozen=True)
class MeasureSpec:
    """A finite direction-atomized measure mu on the sphere.

    atoms[i] is the mass attributed to direction i. When built from a density
    f, each grid node deposits w * f(u) on its nearest direction (largest
    inner product, ties to the smallest index), which is exactly the facet
    assignment of a uniform-support body; the discrete stationarity equation
    is then solvable to machine precision.
    """

    directions: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        dirs = np.ascontiguousarray(np.asarray(self.directions, dtype=float))
        atoms = np.ascontiguousarray(np.asarray(self.atoms, dtype=float))
        if atoms.shape != (dirs.shape[0],):
            raise ValueError("need one atom per direction")
        if np.any(atoms < 0.0) or not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite and nonnegative")
        if stable_sum(atoms) <= 0.0:
            raise ValueError("measure must be non-trivial (positive total mass)")
        dirs.setflags(write=False)
        atoms.setflags(write=False)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "atoms", atoms)

    @staticmethod
    def from_density(density, grid: SphericalGrid,
                     directions: np.ndarray) -> "MeasureSpec":
        values = np.asarray(density(grid.nodes), dtype=float)
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("density must be finite and nonnegative")
        dirs = np.asarray(directions, dtype=float)
        # the nearest direction of each node, in row blocks; one bincount
        # then sums every atom in node order, whatever the block size
        idx = np.empty(grid.node_count, dtype=np.intp)
        for start, prods in product_blocks(grid.nodes, dirs):
            idx[start:start + len(prods)] = np.argmax(prods, axis=1)
            del prods
        if idx.max() >= len(dirs):  # a zero pad won: no product positive
            raise ValueError("a node has no direction within 90 degrees")
        atoms = np.bincount(idx, weights=grid.weights * values,
                            minlength=dirs.shape[0])
        return MeasureSpec(directions=dirs, atoms=atoms)

    @staticmethod
    def from_atoms(atoms, directions) -> "MeasureSpec":
        return MeasureSpec(directions=np.asarray(directions, dtype=float),
                           atoms=np.asarray(atoms, dtype=float))


def integrand_values(rho: np.ndarray, q_weight: np.ndarray, q: float,
                     grid: SphericalGrid) -> np.ndarray:
    """Quadrature-weighted node values rho_K^q rho_Q^{n-q} / n * w, given
    q_weight = rho_Q^{n-q} at the nodes."""
    values = rho ** q * q_weight / grid.dim
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise ValueError(f"non-finite dual volume integrand at node {bad}")
    return values * grid.weights


def _integrand(body: SupportPolytope, q_body: StarBody, q: float,
               grid: SphericalGrid):
    """Weighted node values of the dual volume and the facet assignment."""
    if q == 0.0:
        raise ValueError("dual mixed volume requires q != 0")
    rho, idx = radial_profile(body, grid.nodes)
    q_weight = q_body.radial(grid.nodes) ** (grid.dim - q)
    return integrand_values(rho, q_weight, q, grid), idx


def dual_mixed_volume(body: SupportPolytope, q_body: StarBody, q: float,
                      grid: SphericalGrid) -> float:
    """V~_q(K, Q) = (1/n) integral of rho_K^q rho_Q^{n-q} over the sphere."""
    values, _ = _integrand(body, q_body, q, grid)
    return stable_sum(values)


def dual_curvature_measure(body: SupportPolytope, q_body: StarBody, q: float,
                           grid: SphericalGrid) -> np.ndarray:
    """Facet atoms of the q-th dual curvature measure of K relative to Q.

    Bin i collects (1/n) rho_K^q rho_Q^{n-q} w over the nodes whose radial
    ray exits through facet i; the atoms therefore partition the dual mixed
    volume exactly. Redundant facets receive zero.
    """
    values, idx = _integrand(body, q_body, q, grid)
    return np.bincount(idx, weights=values, minlength=body.facet_count)


def lp_dual_curvature_measure(body: SupportPolytope, q_body: StarBody,
                              p: float, q: float,
                              grid: SphericalGrid) -> np.ndarray:
    """Support-weighted atoms: atom_i of C~_q times h_i^{-p}.

    h_i is used directly even for redundant facets (their atom is zero, so
    the true support value there is irrelevant).
    """
    base = dual_curvature_measure(body, q_body, q, grid)
    return base * body.support ** (-p)


def dual_curvature_via_boundary(body: SupportPolytope, q_body: StarBody,
                                q: float) -> np.ndarray:
    """Independent facet atoms from the boundary integral (n = 3 only).

    Atom i = (h_i / n) * integral over facet i of rho_Q^{n-q}(x) dA(x). The
    convex hull of the points v_i / h_i (the polar body) carries the faces
    of K: each hull triangle is the vertex of K on its three facet planes,
    and each hull edge (i, j) is the edge of K between facets i and j,
    joining the vertices of the edge's two triangles. A halfspace that is no
    hull vertex bounds no facet, and its atom is 0. Each edge adds to facet
    i the fan triangle from the foot h_i v_i, signed by the side of the edge
    the foot lies on, so the fans sum to the facet wherever its foot lies.
    A collapsed (Duffy) Gauss-Legendre rule of BOUNDARY_DEGREE points per
    axis integrates every fan triangle at once; it is exact on polynomials
    of degree up to 2 BOUNDARY_DEGREE - 2, so the atoms at q = n are exact.
    The fans go in blocks of at most sphere.BLOCK_CELLS node coordinates,
    so one block of nodes is held at a time.
    No spherical grid is involved, so this is the cross-check oracle for the
    grid-binned atoms.
    """
    if body.dim != 3:
        raise ValueError("boundary-integral route requires n = 3")
    if q == 0.0:
        raise ValueError("requires q != 0")
    from scipy.spatial import ConvexHull, QhullError

    n, normals, h = body.dim, body.normals, body.support
    try:
        hull = ConvexHull(normals / h[:, None])
    except QhullError as exc:
        raise ValueError(f"the polar hull of the body's {body.facet_count} "
                         f"facets failed") from exc
    tri = hull.simplices
    verts = np.linalg.solve(normals[tri], h[tri][..., None])[..., 0]
    # each hull edge once, from the lower of its two triangles:
    # neighbors[t, k] is the triangle across the edge of t opposite point k
    t, k = np.divmod(np.flatnonzero(
        hull.neighbors > np.arange(len(tri))[:, None]), 3)
    i, j, u = tri[t, (k + 1) % 3], tri[t, (k + 2) % 3], hull.neighbors[t, k]
    facet, other = np.concatenate([i, j]), np.concatenate([j, i])
    a, b = np.tile(verts[t], (2, 1)), np.tile(verts[u], (2, 1))
    foot = h[facet, None] * normals[facet]
    # midpoint - foot lies in the facet plane, so its product with v_j is
    # its product with the edge's normal in that plane, which points out
    sign = np.sign(np.sum((0.5 * (a + b) - foot) * normals[other], axis=1))
    twice_area = np.linalg.norm(np.cross(a - foot, b - foot), axis=1)
    # the fan triangle is foot + s (a - foot) + s r (b - a) over the unit
    # square (s, r), with Jacobian twice_area * s
    nodes, w = np.polynomial.legendre.leggauss(BOUNDARY_DEGREE)
    nodes, w = 0.5 * (nodes + 1.0), 0.5 * w
    s, sr = np.repeat(nodes, len(nodes)), np.outer(nodes, nodes).ravel()
    rule = np.outer(w * nodes, w).ravel()
    fans = np.empty(len(facet))
    for blk in row_slices(len(facet), n * len(s)):
        pts = foot[blk, None, :] + s[None, :, None] * (a - foot)[blk, None, :] \
            + sr[None, :, None] * (b - a)[blk, None, :]
        vals = q_body.radial_homogeneous(pts.reshape(-1, n)) ** (n - q)
        fans[blk] = vals.reshape(len(pts), -1) @ rule
        del pts, vals
    fans *= sign * twice_area
    return np.bincount(facet, weights=fans, minlength=len(h)) * h / n


# ---------------------------------------------------------------------------
# entropy functional


def _check_alignment(body: SupportPolytope, mu: MeasureSpec):
    if body.normals.shape != mu.directions.shape or \
            not np.allclose(body.normals, mu.directions, atol=1e-12):
        raise ValueError("measure atoms must live on the body's normal set")


def entropy_state(h: np.ndarray, mu_atoms: np.ndarray, p: float, q: float,
                  volume: float, atoms: np.ndarray | None):
    """The entropy functional and its log-gradient at support numbers h.

    phi = (1/p) log sum_i h_i^p mu_i - (1/q) log V, with V the dual volume
    V~_q(K, Q). Given the curvature atoms C~_{q,i} (which sum to V), the
    log-gradient h_i dphi/dh_i = h_i^p mu_i / (sum_j h_j^p mu_j) - C~_{q,i} / V
    follows from the first variation of the dual volume along the body's
    own Wulff family (a unit bump of h_i changes V by q C~_{q,i} / h_i); it
    sums to 0, the scale invariance of phi. Returns (phi, log-gradient), the
    log-gradient None when atoms is None.
    """
    weighted = h ** p * mu_atoms
    mass = stable_sum(weighted)
    if not (mass > 0 and volume > 0):
        raise ValueError(f"degenerate entropy state: mass term {mass!r}, "
                         f"dual volume {volume!r}; both must be positive")
    phi = math.log(mass) / p - math.log(volume) / q
    if atoms is None:
        return phi, None
    return phi, weighted / mass - atoms / volume


def entropy_gradient(body: SupportPolytope, mu: MeasureSpec, q_body: StarBody,
                     p: float, q: float, grid: SphericalGrid) -> np.ndarray:
    """Analytic gradient of the entropy functional in the support numbers:
    the log-gradient of entropy_state divided by h. The pairing <grad, h>
    vanishes identically."""
    _check_alignment(body, mu)
    atoms = dual_curvature_measure(body, q_body, q, grid)
    _, log_grad = entropy_state(body.support, mu.atoms, p, q,
                                stable_sum(atoms), atoms)
    return log_grad / body.support


# ---------------------------------------------------------------------------
# affine invariance


def transform_polytope(body: SupportPolytope, phi: np.ndarray) -> SupportPolytope:
    """The image phi K with re-normalized constraints.

    <x, v> <= h maps to the constraint with normal phi^{-T} v / |phi^{-T} v|
    and support number h / |phi^{-T} v|.
    """
    phi = np.asarray(phi, dtype=float)
    phi_inv_t = np.linalg.inv(phi).T
    w = body.normals @ phi_inv_t.T
    norms = np.linalg.norm(w, axis=1)
    return SupportPolytope(dim=body.dim, normals=w / norms[:, None],
                           support=body.support / norms)


def affine_invariance_check(body: SupportPolytope, q_body: StarBody, q: float,
                            phi: np.ndarray, g, grid_a: SphericalGrid,
                            grid_b: SphericalGrid) -> tuple[float, float, float]:
    """Both sides of the unimodular-equivariance identity and their gap.

    Left: integral of g against the curvature atoms of (phi K, phi Q), on
    grid_a. Right: integral of g(phi^{-T} v / |phi^{-T} v|) against the atoms
    of (K, Q), on grid_b. The two grids should be independent so the gap
    reflects genuine quadrature disagreement, not shared bias.
    """
    phi = np.asarray(phi, dtype=float)
    if abs(np.linalg.det(phi) - 1.0) > 1e-10:
        raise ValueError("phi must be unimodular (det = 1 within 1e-10)")
    if np.linalg.cond(phi) > 1e6:
        raise ValueError("phi too ill-conditioned for a meaningful check")

    body_t = transform_polytope(body, phi)
    q_t = q_body.transformed(phi)
    atoms_l = dual_curvature_measure(body_t, q_t, q, grid_a)
    lhs = stable_sum(np.asarray(g(body_t.normals), dtype=float) * atoms_l)

    atoms_r = dual_curvature_measure(body, q_body, q, grid_b)
    # body_t.normals are exactly the renormalized phi^{-T} v_i
    rhs = stable_sum(np.asarray(g(body_t.normals), dtype=float) * atoms_r)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, gap

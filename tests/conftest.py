import math

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from dualminkowski.bodies import SupportPolytope, centered, radial_profile
from dualminkowski.groups import simplex_symmetry, invariant_directions
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes


@pytest.fixture(scope="session")
def grid3():
    return build_grid(3, 20000)


@pytest.fixture(scope="session")
def grid3_small():
    return build_grid(3, 5000)


@pytest.fixture(scope="session")
def grid2():
    return build_grid(2, 20000)


@pytest.fixture(scope="session")
def tetra_group():
    return simplex_symmetry(3)


@pytest.fixture(scope="session")
def tetra_directions(tetra_group):
    return invariant_directions(tetra_group, 642)


def random_polytope(rng, n_facets, dim=3, jitter=0.08, h_lo=0.9, h_hi=1.1,
                    grid=None, min_cell_share=0.03):
    """Well-conditioned random polytope: jittered quasi-uniform normals and a
    narrow support band, resampled until no facet's spherical cell is tiny
    (tiny cells make per-facet relative comparisons meaningless)."""
    from dualminkowski.bodies import radial_profile

    while True:
        if dim == 3:
            base = fibonacci_sphere_nodes(n_facets)
            rot = special_ortho_group.rvs(3, random_state=rng)
            dirs = base @ rot.T + jitter * rng.standard_normal((n_facets, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        else:
            dirs = rng.standard_normal((n_facets, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            # raw Gaussian normal sets can barely span, giving sliver bodies
            # whose integrands have unbounded variance; insist on a margin
            rays = rng.standard_normal((256, dim))
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            if np.min(np.max(rays @ dirs.T, axis=1)) < 0.25:
                continue
        h = rng.uniform(h_lo, h_hi, n_facets)
        try:
            body = SupportPolytope(dim=dim, normals=dirs, support=h)
        except ValueError:
            continue
        if grid is not None:
            _, idx = radial_profile(body, grid.nodes)
            counts = np.bincount(idx, minlength=n_facets)
            if counts.min() < min_cell_share * grid.node_count / n_facets:
                continue
        return body


def random_centered_polytope(rng, dim, grid, min_cover=0.25):
    """Random polytope recentered at its centroid. Normal sets that barely
    positively span produce sliver bodies on which vertex enumeration (and
    the volume-product inequalities' preconditions) degrade, so draws are
    rejected until every direction is covered with a healthy margin."""
    while True:
        try:
            m = int(rng.integers(dim + 3, dim + 10))
            dirs = rng.standard_normal((m, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            cover = np.min(np.max(grid.nodes @ dirs.T, axis=1))
            if cover < min_cover:
                continue
            h = rng.uniform(0.7, 1.4, m)
            body = SupportPolytope(dim=dim, normals=dirs, support=h)
            return centered(body, grid, iterations=6)
        except ValueError:
            continue


# Dense radial probes over every halfspace of a body: the references that
# bodies.is_invariant and constructions.certify_asymmetry, which probe only
# the halfspaces near active, must reproduce bit for bit.


def dense_is_invariant(body, group, grid, tol=1e-9):
    rho, _ = radial_profile(body, grid.nodes)
    stacked = np.einsum("kij,nj->kni", group.elements,
                        grid.nodes).reshape(-1, body.dim)
    rho_all, _ = radial_profile(body, stacked)
    deviations = np.abs(rho_all.reshape(group.order, -1) - rho[None, :])
    worst = float(np.max(deviations))
    return worst <= tol, worst


def dense_asymmetry(body, grid):
    """(max_gap, witness) of the dense |rho(u) - rho(-u)| probe."""
    rho_pos, _ = radial_profile(body, grid.nodes)
    rho_neg, _ = radial_profile(body, -grid.nodes)
    gaps = np.abs(rho_pos - rho_neg)
    i = int(np.argmax(gaps))
    return float(gaps[i]), grid.nodes[i]


# The one-shot kernels that StarBody.box and sphere.stable_sum replaced with
# a column-wise fold and an exact extraction: references that those must
# reproduce bit for bit.


def reference_box_radial(axes, pts):
    axes = np.asarray(axes, dtype=float)
    with np.errstate(divide="ignore"):
        ratios = np.where(np.abs(pts) > 1e-300,
                          axes[None, :] / np.abs(pts), np.inf)
    return np.min(ratios, axis=1)


def reference_stable_sum(values):
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from dualminkowski import bodies, sphere
from dualminkowski.bodies import (SupportPolytope, active_part, geometry_stats,
                                  radial_profile, vertex_enumeration)
from dualminkowski.groups import MATCH_TOL, simplex_symmetry, invariant_directions
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes, probe_grid


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


def heap_peak_mib(run):
    """Peak of the traced heap while run() runs, above the heap in use when
    it starts, in MiB (numpy reports its array buffers to tracemalloc)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if started:
            tracemalloc.stop()


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


def translate(body, z):
    """The translate K - z on the same normal set (h_i -> h_i - <v_i, z>)."""
    z = np.asarray(z, dtype=float)
    new_h = body.support - body.normals @ z
    if np.any(new_h <= 0.0):
        raise ValueError("translation moves the origin outside the body")
    return SupportPolytope(dim=body.dim, normals=body.normals, support=new_h)


def centered(body, grid=None, iterations=4):
    """Translate the body until the centroid estimate sits at the origin."""
    if grid is None:
        grid = probe_grid(body.dim)
    out = body
    for _ in range(iterations):
        stats = geometry_stats(out, grid)
        shift = stats["centroid"]
        if np.linalg.norm(shift) <= 1e-12 * stats["circumradius"]:
            break
        out = translate(out, shift)
    return out


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


def reference_invariance_bound(body, group):
    """bodies.is_invariant's constraint-match bound R (eps + R delta) / h_min,
    with each image g v_i matched by a scan of all inner products instead of
    sphere.nearest_within."""
    active, verts = active_part(body)
    images = group.apply(active.normals).reshape(-1, body.dim)
    match = np.argmax(images @ active.normals.T, axis=1)
    delta = float(np.max(np.linalg.norm(images - active.normals[match],
                                        axis=1)))
    eps = float(np.max(np.abs(np.tile(active.support, group.order)
                              - active.support[match])))
    radius = float(np.max(np.linalg.norm(verts, axis=1)))
    return radius * (eps + radius * delta) / float(np.min(active.support))


def assert_bound_covers_probe(bound, body, group, grid):
    """A proven invariance bound, widened by 4 eps R for the rounding of the
    probe's divisions, is at least the dense probe's deviation."""
    radius = float(np.max(np.linalg.norm(vertex_enumeration(body), axis=1)))
    _, probed = dense_is_invariant(body, group, grid)
    assert bound + 4.0 * np.finfo(float).eps * radius >= probed


def dense_asymmetry(body, grid):
    """(max_gap, witness) of the dense |rho(u) - rho(-u)| probe."""
    rho_pos, _ = radial_profile(body, grid.nodes)
    rho_neg, _ = radial_profile(body, -grid.nodes)
    gaps = np.abs(rho_pos - rho_neg)
    i = int(np.argmax(gaps))
    return float(gaps[i]), grid.nodes[i]


# The dense forms that radial_profile and RadialKernel._build replaced with
# one block of products at a time: references that those must reproduce bit
# for bit.


def reference_radial_profile(body, points):
    """radial_profile with the ratios formed by np.where from the whole
    product, not block by block in place."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    denom = pts @ body.normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > bodies._POS_DENOM_TOL,
                          body.support[None, :] / denom, np.inf)
    idx = np.argmin(ratios, axis=1)
    rho = ratios[np.arange(pts.shape[0]), idx]
    if not np.all(np.isfinite(rho)):
        bad = int(np.argmax(~np.isfinite(rho)))
        raise ValueError(
            f"no positive denominator at direction {pts[bad]}; "
            "normals do not positively span"
        )
    return rho, idx


def reference_nearest_within(points, queries, radius):
    """sphere.nearest_within with the query keys searched in their own
    order, unsorted."""
    pts = np.asarray(points, dtype=float)
    qs = np.asarray(queries, dtype=float)
    key = sphere._generic_key(pts)
    order = np.argsort(key, kind="stable")
    key, qkey = key[order], sphere._generic_key(qs)
    lo = np.searchsorted(key, qkey - 4.0 * radius, side="left")
    count = np.searchsorted(key, qkey + 4.0 * radius, side="right") - lo
    row = np.repeat(np.arange(qs.shape[0]), count)
    cand = order[np.arange(row.size) +
                 np.repeat(lo - (np.cumsum(count) - count), count)]
    dist = np.linalg.norm(qs[row] - pts[cand], axis=1)
    close = dist <= radius
    row, cand, dist = row[close], cand[close], dist[close]
    pick = np.lexsort((cand, dist, row))
    head = np.ones(pick.size, dtype=bool)
    head[1:] = row[pick[1:]] != row[pick[:-1]]
    pick = pick[head]
    nearest = np.full(qs.shape[0], -1, dtype=np.intp)
    gap = np.full(qs.shape[0], np.inf)
    nearest[row[pick]], gap[row[pick]] = cand[pick], dist[pick]
    return nearest, gap


def reference_kernel_lists(points, normals, ratio):
    """RadialKernel's lists, built from the whole product at once."""
    prods = points @ normals.T
    top = np.max(prods, axis=1)
    if not np.all(top > bodies._POS_DENOM_TOL):
        raise ValueError(
            f"no positive denominator at point {int(np.argmin(top))}; "
            "normals do not positively span")
    cut = np.maximum((ratio * (1.0 - bodies._PRUNE_SLACK)) * top,
                     bodies._POS_DENOM_TOL)
    points, cols = np.divmod(np.flatnonzero(prods > cut[:, None]),
                             prods.shape[1])
    counts = np.bincount(points, minlength=prods.shape[0])
    start = np.cumsum(counts) - counts
    rows = np.arange(points.size) - start[points]
    shape = int(counts.max()), prods.shape[0]
    values = np.zeros(shape)
    values[rows, points] = prods[points, cols]
    order = np.argsort(-values, axis=0)
    values = np.take_along_axis(values, order, axis=0)
    reach = np.max(values / values[0], axis=1)
    facets = np.zeros(shape, dtype=np.intp)
    facets[rows, points] = cols
    facets = np.take_along_axis(facets, order, axis=0)
    pad = np.arange(shape[0])[:, None] >= counts
    last = counts - 1, np.arange(shape[1])
    facets = np.where(pad, facets[last], facets)
    values = np.where(pad, values[last], values)
    return ratio, facets, values, reach


# The radial function of a coordinate box, min_i a_i / |u_i| (inf where
# |u_i| <= 1e-300), for the Monte-Carlo box dual volumes of the tests; and the
# one-shot sum that sphere.stable_sum replaced with an exact extraction, a
# reference that it must reproduce bit for bit.


def reference_box_radial(axes, pts):
    axes = np.asarray(axes, dtype=float)
    with np.errstate(divide="ignore"):
        ratios = np.where(np.abs(pts) > 1e-300,
                          axes[None, :] / np.abs(pts), np.inf)
    return np.min(ratios, axis=1)


def reference_stable_sum(values):
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


# Test data: icosphere direction sets, and the closure check of an element
# list.


def icosphere_nodes(level):
    """Vertices of an icosahedron subdivided `level` times, projected to S^2.

    Yields 12, 42, 162, 642, ... = 10*4^level + 2 unit vectors.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(level):
        midpoint_cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint_cache[key] = len(verts) - 1
            return midpoint_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    nodes = np.array(verts)
    return nodes / np.linalg.norm(nodes, axis=1, keepdims=True)


def check_closure(group):
    """Max distance from any product gh to its nearest element; raises above
    the package's matching tolerance."""
    worst = 0.0
    for g in group.elements:
        products = np.einsum("ij,kjl->kil", g, group.elements)
        for prod in products:
            dist = np.min(np.max(np.abs(group.elements - prod[None]),
                                 axis=(1, 2)))
            worst = max(worst, float(dist))
    if worst > MATCH_TOL:
        raise ValueError(f"element list not closed under product: {worst:.3e}")
    return worst

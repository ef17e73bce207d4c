import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from dualminkowski import bodies, sphere
from dualminkowski.bodies import (
    StarBody,
    SupportPolytope,
    ball_polytope,
    cube_polytope,
    geometry_stats,
    is_invariant,
    polar_body,
    prune,
    radial_eval,
    radial_profile,
    shifted_ball_polytope,
    support_profile,
    vertex_enumeration,
)
from dualminkowski.groups import (MERGE_TOL, OrthogonalGroup, cube_rotation,
                                  cyclic_rotation, direct_sum,
                                  invariant_directions, simplex_symmetry)
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes, probe_grid

from conftest import (assert_bound_covers_probe, centered, dense_is_invariant,
                      heap_peak_mib, reference_invariance_bound,
                      reference_nearest_within, random_polytope, translate)


@pytest.fixture(scope="module")
def cube():
    return cube_polytope(3)


def support_eval(body, u):
    """The support function h_K(u) = max <x, u> over K by linear
    programming: the reference of the vertex route."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(u, dtype=float), A_ub=body.normals,
                  b_ub=body.support, bounds=[(None, None)] * body.dim,
                  method="highs")
    assert res.success, res.message
    return float(-res.fun)


class TestConstruction:
    def test_floor_enforced(self):
        normals = np.vstack([np.eye(3), -np.eye(3)])
        with pytest.raises(ValueError, match="below floor"):
            SupportPolytope(dim=3, normals=normals,
                            support=np.array([1, 1, 1, 1, 1, 1e-9]),
                            h_floor=1e-6)

    @pytest.mark.parametrize("value", [0.0, -1.0, -1e-300])
    def test_default_floor_needs_positive_support(self, value):
        """Without a given floor, a support number <= 0 is named before the
        floor, a geometric mean, is taken of it."""
        normals = np.vstack([np.eye(3), -np.eye(3)])
        support = np.ones(6)
        support[4] = value
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match=r"support number 4 = .* is not positive"):
            SupportPolytope(dim=3, normals=normals, support=support)

    def test_positive_spanning_required(self):
        # all normals in the upper half space: unbounded body
        dirs = fibonacci_sphere_nodes(40)
        dirs = dirs[dirs[:, 2] > 0.1]
        with pytest.raises(ValueError, match="positively span"):
            SupportPolytope(dim=3, normals=dirs, support=np.ones(len(dirs)))

    def test_horizontal_normals_plus_pole_rejected(self):
        """No halfspace bounds the body towards -e_z, although every node
        of a probe grid sees a positive product."""
        theta = 2.0 * math.pi * np.arange(64) / 64
        dirs = np.vstack([np.column_stack([np.cos(theta), np.sin(theta),
                                           np.zeros(64)]), [0.0, 0.0, 1.0]])
        u = bodies._uncovered_direction(dirs)
        assert u is not None and np.max(dirs @ u) <= 0.0
        with pytest.raises(ValueError, match="positively span"):
            SupportPolytope(dim=3, normals=dirs, support=np.ones(65))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_normals_in_one_hyperplane_rejected(self, dim):
        """Normals in the hyperplane x_n = 0 (one line for n = 2): Qhull
        fails on the flat set and the hyperplane's normal is named."""
        rng = np.random.default_rng(dim)
        dirs = rng.standard_normal((3 * dim, dim))
        dirs[:, -1] = 0.0
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        u = bodies._uncovered_direction(dirs)
        assert u is not None and np.max(dirs @ u) <= 0.0
        with pytest.raises(ValueError, match="positively span"):
            SupportPolytope(dim=dim, normals=dirs, support=np.ones(3 * dim))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_cross_polytope_normals_span_and_half_does_not(self, dim):
        cube = cube_polytope(dim)
        assert bodies._uncovered_direction(cube.normals) is None
        # drop -e_1: the body is unbounded towards -e_1
        dirs = np.vstack([np.eye(dim), -np.eye(dim)[1:],
                          np.ones(dim) / math.sqrt(dim)])
        u = bodies._uncovered_direction(dirs)
        assert u is not None and np.max(dirs @ u) <= 0.0

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_accepted_random_sets_cover_a_dense_probe(self, dim):
        """Each accepted set has a positive product at every node of a
        20000-node probe; each rejected set names a direction that no
        normal covers."""
        rng = np.random.default_rng(40 + dim)
        probe = rng.standard_normal((20000, dim))
        probe /= np.linalg.norm(probe, axis=1, keepdims=True)
        accepted = 0
        for _ in range(60):
            dirs = rng.standard_normal((int(rng.integers(dim + 1, 3 * dim)),
                                        dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            u = bodies._uncovered_direction(dirs)
            if u is None:
                accepted += 1
                assert np.min(np.max(probe @ dirs.T, axis=1)) > 0.0
            else:
                assert np.max(dirs @ u) <= 0.0
        assert 0 < accepted < 60

    def test_unit_normals_required(self):
        normals = np.vstack([np.eye(2) * 1.001, -np.eye(2)])
        with pytest.raises(ValueError, match="unit"):
            SupportPolytope(dim=2, normals=normals, support=np.ones(4))

    def test_default_floor_from_geometric_mean(self, cube):
        assert cube.h_floor == pytest.approx(1e-6)

    @pytest.mark.parametrize("part, index, value, message", [
        ("normals", (1, 0), math.nan, r"normals row 1 is not finite"),
        ("normals", (4, 2), math.inf, r"normals row 4 is not finite"),
        ("support", 5, math.nan, r"support entry 5 is not finite: nan"),
        ("support", 2, math.inf, r"support entry 2 is not finite: inf"),
    ])
    def test_non_finite_entries_named(self, cube, part, index, value,
                                      message):
        """Every comparison with nan is false, so the other checks would
        pass a nan through; an inf support number would set the floor to
        inf."""
        arrays = {"normals": cube.normals.copy(),
                  "support": cube.support.copy()}
        arrays[part][index] = value
        with pytest.raises(ValueError, match=message):
            SupportPolytope(dim=3, **arrays)

    def test_non_finite_floor_rejected(self, cube):
        with pytest.raises(ValueError, match="h_floor must be finite"):
            SupportPolytope(dim=3, normals=cube.normals,
                            support=cube.support, h_floor=math.nan)


def _qhull_route(normals):
    """_uncovered_direction with the axis certificate switched off."""
    with mock.patch.object(bodies, "_axis_certificate", lambda v: False):
        return bodies._uncovered_direction(normals)


def _assert_certificate_sound(normals):
    """The certificate holds only where the Qhull route finds the normals
    spanning, and _uncovered_direction returns what that route returns.
    Gives the certificate's verdict."""
    certified = bodies._axis_certificate(normals)
    want = _qhull_route(normals)
    got = bodies._uncovered_direction(normals)
    assert not certified or want is None
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
    return certified


def _unit(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _axis_extremes(dim, cuts, rng):
    """2n unit normals, rows 2k and 2k + 1 at +cuts[2k] and -cuts[2k + 1]
    on axis k and tilted off it in a random direction."""
    rows = rng.standard_normal((2 * dim, dim))
    for k in range(dim):
        for row, sign in ((2 * k, 1.0), (2 * k + 1, -1.0)):
            rows[row, k] = 0.0
            c = cuts[row]
            rows[row] *= math.sqrt(1.0 - c * c) / np.linalg.norm(rows[row])
            rows[row, k] = sign * c
    return rows


def _normal_set(kind, dim, count, seed):
    """Unit normals of one kind: random, near-uniform with a normal close to
    each of +-e_k, confined to the half-space x_n > 0, flat (x_n = 0), or
    only the 2n axis extremes, at 1 - 1/(2n) + 1e-9 (the certificate's cut)
    plus at most 1e-8."""
    rng = np.random.default_rng(seed)
    if kind == "threshold":
        cut = 1.0 - 0.5 / dim + 1e-9
        return _axis_extremes(dim, cut + rng.uniform(-1e-8, 1e-8, 2 * dim),
                              rng)
    rows = rng.standard_normal((count, dim))
    if kind == "near-uniform":
        axes = np.vstack([np.eye(dim), -np.eye(dim)])
        rows = np.vstack([rows, axes + 0.05 * rng.standard_normal(axes.shape)])
    elif kind == "half-space":
        rows[:, -1] = np.abs(rows[:, -1]) + 1e-3
    elif kind == "flat":
        rows[:, -1] = 0.0
    return _unit(rows)


class TestAxisCertificate:
    """The axis certificate (no Qhull) against the Qhull route it sits in
    front of, in n = 2..5."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["random", "near-uniform", "half-space", "flat",
                            "threshold"]),
           st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_certifies_only_what_qhull_certifies(self, kind, dim, extra,
                                                 seed):
        normals = _normal_set(kind, dim, dim + 1 + extra, seed)
        certified = _assert_certificate_sound(normals)
        if kind in ("half-space", "flat"):
            assert not certified

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_near_uniform_sets_are_certified(self, dim):
        normals = _normal_set("near-uniform", dim, 20 * dim, dim)
        assert _assert_certificate_sound(normals)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["half-space", "flat"])
    def test_one_sided_sets_are_not_certified(self, dim, kind):
        normals = _normal_set(kind, dim, 20 * dim, dim)
        assert not _assert_certificate_sound(normals)
        assert _qhull_route(normals) is not None

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_cross_polytope(self, dim):
        """All 2n axis normals certify; without -e_1 the certificate fails
        and Qhull names the uncovered direction."""
        axes = np.vstack([np.eye(dim), -np.eye(dim)])
        assert _assert_certificate_sound(axes)
        dropped = np.delete(axes, dim, axis=0)
        assert not _assert_certificate_sound(dropped)
        u = bodies._uncovered_direction(dropped)
        assert np.max(dropped @ u) <= 0.0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_threshold(self, dim):
        """Axis extremes 2e-9 above the cut certify; 2e-9 below it, they do
        not, and Qhull still finds the set spanning."""
        cut = 1.0 - 0.5 / dim + 1e-9
        for delta, certified in ((2e-9, True), (-2e-9, False)):
            normals = _axis_extremes(dim, np.full(2 * dim, cut + delta),
                                     np.random.default_rng(dim))
            assert _assert_certificate_sound(normals) == certified
            assert _qhull_route(normals) is None

    def test_tetrahedron_needs_qhull(self):
        """The four tetrahedron normals span, but no normal is within the
        cut of an axis: Qhull certifies them."""
        normals = _unit([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        assert not _assert_certificate_sound(normals)
        assert bodies._uncovered_direction(normals) is None


class TestRadial:
    def test_cube_axis(self, cube):
        rho, facet = radial_eval(cube, np.array([1.0, 0.0, 0.0]))
        assert rho == pytest.approx(1.0, abs=1e-14)
        assert facet == 0

    def test_cube_corner(self, cube):
        u = np.ones(3) / math.sqrt(3)
        rho, _ = radial_eval(cube, u)
        assert rho == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_ball_like_sandwich(self, grid3_small):
        body = ball_polytope(fibonacci_sphere_nodes(642), radius=2.5)
        rho, _ = radial_profile(body, grid3_small.nodes)
        covering = math.sqrt(8.0 * math.pi / 642)
        assert np.all(rho >= 2.5 - 1e-12)
        assert np.all(rho <= 2.5 / math.cos(covering))

    def test_boundary_point_feasible(self, grid3_small):
        rng = np.random.default_rng(2)
        body = random_polytope(rng, 9)
        rho, idx = radial_profile(body, grid3_small.nodes)
        points = rho[:, None] * grid3_small.nodes
        slack = points @ body.normals.T - body.support[None, :]
        assert np.max(slack) <= 1e-10
        chosen = slack[np.arange(len(points)), idx]
        assert np.max(np.abs(chosen)) <= 1e-10  # active at the reported facet

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(3)
        body = random_polytope(rng, 8)
        scaled = body.with_support(body.support * 3.0)
        u = np.array([0.3, -0.2, 0.8]) / np.linalg.norm([0.3, -0.2, 0.8])
        assert radial_eval(scaled, u)[0] == pytest.approx(
            3.0 * radial_eval(body, u)[0], rel=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.01, max_value=0.5))
    def test_monotone_in_support(self, which, bump):
        body = cube_polytope(3)
        raised = body.with_support(body.support + bump * (np.arange(6) == which))
        probe = fibonacci_sphere_nodes(200)
        rho_lo, _ = radial_profile(body, probe)
        rho_hi, _ = radial_profile(raised, probe)
        assert np.all(rho_hi >= rho_lo - 1e-12)


class TestSupport:
    def test_cube_corner_lp(self, cube):
        u = np.ones(3) / math.sqrt(3)
        assert support_eval(cube, u) == pytest.approx(math.sqrt(3), rel=1e-9)

    def test_redundant_constraint_detected(self):
        normals = np.vstack([np.eye(3), -np.eye(3),
                             np.array([[1.0, 0.0, 0.0]])])
        h = np.array([1, 1, 1, 1, 1, 1, 5.0])
        body = SupportPolytope(dim=3, normals=normals, support=h)
        assert support_eval(body, normals[6]) == pytest.approx(1.0, abs=1e-9)
        assert support_eval(body, normals[6]) < h[6]

    def test_support_le_h(self, grid3_small):
        rng = np.random.default_rng(4)
        body = random_polytope(rng, 10)
        for i in range(body.facet_count):
            assert support_eval(body, body.normals[i]) <= body.support[i] + 1e-9

    def test_lp_vs_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        body = random_polytope(rng, 9)
        verts = vertex_enumeration(body)
        for u in fibonacci_sphere_nodes(24):
            lp = support_eval(body, u)
            vx = float(np.max(verts @ u))
            assert lp == pytest.approx(vx, rel=1e-8)

    def test_fresh_wulff_support_equals_h_after_prune(self):
        rng = np.random.default_rng(6)
        body = prune(random_polytope(rng, 9))
        h_vertex = support_profile(body.normals, vertex_enumeration(body))
        assert np.allclose(h_vertex, body.support, rtol=1e-9)


class TestPolar:
    def test_ball_polar(self):
        # circumscribed facets overshoot the ball by ~covering-angle^2/2
        body = ball_polytope(fibonacci_sphere_nodes(1280), radius=2.0)
        u = np.array([0.1, 0.7, 0.7]) / np.linalg.norm([0.1, 0.7, 0.7])
        rho, _ = radial_eval(polar_body(body), u)
        assert rho == pytest.approx(0.5, rel=5e-3)

    def test_cube_polar_is_cross_polytope(self, cube):
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            rho, _ = radial_eval(polar_body(cube), u)
            assert rho == pytest.approx(1.0 / np.abs(u).sum(), rel=1e-9)

    def test_polar_involution(self):
        rng = np.random.default_rng(8)
        body = random_polytope(rng, 9)
        double_polar = polar_body(polar_body(body))
        probe = fibonacci_sphere_nodes(100)
        rho_orig, _ = radial_profile(body, probe)
        rho_back, _ = radial_profile(double_polar, probe)
        assert np.max(np.abs(rho_orig - rho_back)) <= 1e-8


class TestWulff:
    """The Wulff family K(h + t phi) on fixed normals, as the solver steps
    through it: with_support on the same normal set."""

    def test_zero_step_identity(self, cube):
        phi = np.linspace(-0.2, 0.3, 6)
        out = cube.with_support(cube.support + 0.0 * phi)
        assert np.array_equal(out.support, cube.support)

    def test_scaling_direction(self, cube):
        lam = 1.7
        out = cube.with_support(cube.support + (lam - 1.0) * cube.support)
        probe = fibonacci_sphere_nodes(50)
        rho_out, _ = radial_profile(out, probe)
        rho_in, _ = radial_profile(cube, probe)
        assert np.allclose(rho_out, lam * rho_in, rtol=1e-14)

    def test_invariant_base_and_bump_stay_invariant(self, tetra_group,
                                                    tetra_directions):
        from dualminkowski.groups import orbits

        body = ball_polytope(tetra_directions)
        part = orbits(tetra_group, tetra_directions)
        phi = np.empty(len(tetra_directions))
        rng = np.random.default_rng(9)
        for orbit in part:
            phi[orbit] = rng.uniform(-0.2, 0.2)
        out = body.with_support(body.support + 0.5 * phi)
        ok, dev, _ = is_invariant(out, tetra_group)
        assert ok, dev

    def test_floor_violation_reports_index(self, cube):
        phi = np.zeros(6)
        phi[3] = -1.0
        with pytest.raises(ValueError, match="support number 3 .* below floor"):
            cube.with_support(cube.support + 1.0 * phi)


class TestGeometryStats:
    def test_cube(self, cube, grid3):
        stats = geometry_stats(cube, grid3)
        assert sorted(stats) == ["centroid", "circumradius"]
        assert np.linalg.norm(stats["centroid"]) <= 1e-3
        assert stats["circumradius"] == pytest.approx(math.sqrt(3), rel=0.01)

    def test_ball_like(self, grid3_small):
        body = ball_polytope(fibonacci_sphere_nodes(642), radius=0.7)
        stats = geometry_stats(body, grid3_small)
        assert stats["circumradius"] == pytest.approx(0.7, rel=0.01)

    def test_invariant_body_centroid_zero(self, tetra_group, tetra_directions,
                                          grid3_small):
        rng = np.random.default_rng(10)
        from dualminkowski.groups import orbits

        h = np.empty(len(tetra_directions))
        for orbit in orbits(tetra_group, tetra_directions):
            h[orbit] = rng.uniform(0.8, 1.3)
        body = SupportPolytope(dim=3, normals=tetra_directions, support=h)
        stats = geometry_stats(body, grid3_small)
        assert np.linalg.norm(stats["centroid"]) <= 1e-3 * stats["circumradius"]

    def test_needs_no_vertex_enumeration(self, cube, grid3_small,
                                         monkeypatch):
        """One radial pass gives both estimators; Qhull is not run."""
        want = geometry_stats(cube, grid3_small)

        def failing(body):
            raise AssertionError("vertex enumeration called")

        monkeypatch.setattr(bodies, "vertex_enumeration", failing)
        got = geometry_stats(cube, grid3_small)
        assert got["centroid"].tobytes() == want["centroid"].tobytes()
        assert got["circumradius"] == want["circumradius"]


@pytest.fixture(scope="module")
def pooled_body(tetra_group):
    """A criterion-9 pooled body: 160 shifted-ball constraints under the
    24 tetrahedral elements, 3840 constraints and 482 vertices."""
    from dualminkowski.constructions import (_pool_orbit_constraints,
                                             random_generic_rotation)

    base = shifted_ball_polytope(fibonacci_sphere_nodes(160), 2.0,
                                 np.array([0.5, 0.0, 0.0]))
    h = random_generic_rotation(tetra_group, np.array([-1.0, 0.0, 0.0]),
                                seed=0)
    return _pool_orbit_constraints(tetra_group, base, h)


def test_constraint_match_equals_unsorted_search(pooled_body, tetra_group):
    """is_invariant's match of the pooled body's active normals with their
    images equals the search of the query keys in their own order bit for
    bit, at its own reach and at groups.MERGE_TOL."""
    probed, verts = bodies.active_part(pooled_body)
    images = tetra_group.apply(probed.normals).reshape(-1, 3)
    radius = float(np.max(np.linalg.norm(verts, axis=1)))
    reach = 2.0 * bodies.INVARIANCE_TOL * float(np.min(probed.support)) \
        / radius ** 2
    for r in (reach, MERGE_TOL):
        got = sphere.nearest_within(probed.normals, images, r)
        want = reference_nearest_within(probed.normals, images, r)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert np.all(got[0] >= 0)


# Run once per BLAS thread count: every block must be a row slice of the
# padded whole product, and the digest of every product, and of two
# direction sets whose packers compare products from product_blocks, must
# not depend on the thread count.
_PRODUCT_SWEEP = """
import hashlib
import numpy as np
from dualminkowski import groups, sphere

rng = np.random.default_rng(5)
digest = hashlib.sha256()
for group, count in ((groups.simplex_symmetry(3), 642),
                     (groups.cyclic_rotation(5), 90)):
    digest.update(groups.invariant_directions(group, count).tobytes())
for n in (2, 3, 4, 5):
    for k in (1, 5, 75, 386, 390, 484, 645, 3844):
        width = -(-k // 8) * 8
        for m in (1, 2, 47, 49, 97, 1000, 3841):
            rows, cols = rng.standard_normal((m, n)), rng.standard_normal((k, n))
            pad = np.vstack([cols, np.zeros((width - k, n))])
            whole = rows @ pad.T
            digest.update(whole.tobytes())
            for block_rows in (1, 7, 50, 1557):
                sphere.BLOCK_CELLS = block_rows * width
                most = max(2, block_rows)
                got = np.empty_like(whole)
                sizes = []
                for start, block in sphere.product_blocks(rows, cols):
                    got[start:start + len(block)] = block
                    sizes.append(len(block))
                case = n, k, m, block_rows, sizes
                assert sum(sizes) == m, case
                assert m == 1 or min(sizes) >= 2, case
                assert len(sizes) <= -(-m // most), case
                assert max(sizes[:-1], default=0) <= most, case
                assert sizes[-1] <= most + 1, case
                assert len(set(sizes[:-1])) <= 1, case
                assert sizes[0] - sizes[-1] < len(sizes), case
                assert got.tobytes() == whole.tobytes(), case
print(digest.hexdigest())
"""


class TestBlockedProducts:
    """Every facet-vertex and node-vertex maximum is taken from
    product_blocks, whose blocks are row slices of the one padded BLAS
    product: each result equals its dense form bit for bit, at the default
    blocks and at limits of 7 and 700 rows of products (3840 and 5000 rows
    are not multiples of the block sizes)."""

    @pytest.fixture(params=[None, 7, 700], ids=["default", "7", "700"])
    def block_rows(self, request, pooled_body, monkeypatch):
        if request.param is not None:
            cells = request.param * len(vertex_enumeration(pooled_body))
            monkeypatch.setattr(sphere, "BLOCK_CELLS", cells)
        return request.param

    def test_blocks_are_slices_of_the_whole_product(self):
        """n = 2 to 5, column counts of residues 1 to 6 mod 8, a
        last block of one row (97 and 3841 rows), and block limits of 1, 7,
        50 and 1557 rows of padded products (at least two rows): the fewest
        blocks, every one but the last the same size, the last short of it
        by less than one row per block or one row longer, no block of one
        row unless the product has one, and every block a row slice of the
        padded whole product. The sweep runs at one BLAS thread and at
        two, and both give the same bits, also for the tetrahedral-642
        and cyclic5-90 direction sets."""
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": str(pathlib.Path(bodies.__file__).parents[1])}
            runs.append(subprocess.Popen(
                [sys.executable, "-c", _PRODUCT_SWEEP], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        done = [run.communicate(timeout=300) + (run.returncode,)
                for run in runs]
        for _, err, code in done:
            assert code == 0, err
        digests = [out.strip() for out, _, _ in done]
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    @pytest.mark.parametrize("tol", [bodies.PRUNE_TOL, bodies._PROBE_SLACK])
    def test_near_active(self, pooled_body, block_rows, tol):
        verts = vertex_enumeration(pooled_body)
        achieved = np.max(pooled_body.normals @ verts.T, axis=1)
        want = achieved >= pooled_body.support - \
            tol * float(np.max(pooled_body.support))
        mask, got = bodies._near_active(pooled_body, tol)
        assert mask.tobytes() == want.tobytes()
        assert got.tobytes() == verts.tobytes()
        assert 0 < np.count_nonzero(mask) < pooled_body.facet_count

    def test_support_profile(self, pooled_body, grid3_small, block_rows):
        verts = vertex_enumeration(pooled_body)
        want = np.max(grid3_small.nodes @ verts.T, axis=1)
        got = support_profile(grid3_small.nodes, verts)
        assert got.tobytes() == want.tobytes()
        facets = support_profile(pooled_body.normals, verts)
        assert facets.tobytes() == \
            np.max(pooled_body.normals @ verts.T, axis=1).tobytes()

    def test_support_profile_off_origin(self, grid3_small, block_rows):
        """A hull away from the origin has negative support values, which
        no pad product may raise: three vertices, padded to eight."""
        verts = np.array([[5.0, 0.0, 0.0], [6.0, 1.0, 0.0], [6.0, 0.0, 1.0]])
        want = np.max(grid3_small.nodes @ verts.T, axis=1)
        assert np.min(want) < -4.0
        got = support_profile(grid3_small.nodes, verts)
        assert got.tobytes() == want.tobytes()

    def test_active_part_heap_peak(self, pooled_body):
        """At 3840 constraints and 386 vertices, active_part holds one of
        12 blocks of facet-vertex products (334 rows, 1 MiB) and peaks at
        1.0 MiB (5.8 MiB with two 1920-row blocks); with the whole 11.3 MiB
        product it peaked at 11.4 MiB (14.2 MiB at 482 vertices)."""
        assert pooled_body.facet_count == 3840
        assert heap_peak_mib(lambda: bodies.active_part(pooled_body)) < 10.0


class TestInvariance:
    def test_cube_under_own_rotations(self, cube):
        group = cube_rotation(3)
        ok, dev, method = is_invariant(cube, group)
        assert ok and dev <= 1e-10 and method == "constraint-match"
        assert dev == reference_invariance_bound(cube, group)
        assert_bound_covers_probe(dev, cube, group, probe_grid(3))

    def test_cube_under_embedded_cyclic5(self, cube):
        """No rotation by 72 degrees maps the cube's normals onto its own:
        the probe decides, as it did before the constraint match."""
        c5 = cyclic_rotation(5)
        emb = np.array([np.block([[e, np.zeros((2, 1))],
                                  [np.zeros((1, 2)), np.eye(1)]])
                        for e in c5.elements])
        group = OrthogonalGroup(dim=3, elements=emb, label="embedded-c5")
        ok, dev, method = is_invariant(cube, group)
        assert not ok and dev > 0.1 and method == "probe"
        assert (ok, dev) == dense_is_invariant(cube, group, probe_grid(3))

    def test_trivial_group(self, cube):
        g = OrthogonalGroup(dim=3, elements=np.eye(3)[None])
        ok, dev, method = is_invariant(cube, g)
        assert ok and dev == 0.0 and method == "constraint-match"

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    @pytest.mark.parametrize("perturb", ["none", "support", "rotation"])
    def test_bound_covers_probe_on_perturbed_bodies(self, tetra_group, scale,
                                                    perturb):
        """Bodies at most 1e-11 from invariant, so the match decides. The
        support perturbation lives in eps, the rotation in delta (times
        R^2), and scaling by 10 scales the deviation: each term of the
        bound is needed to cover the probe."""
        from scipy.spatial.transform import Rotation

        from dualminkowski.groups import orbits

        dirs = invariant_directions(tetra_group, 162)
        rng = np.random.default_rng(3)
        h = np.empty(len(dirs))
        for orbit in orbits(tetra_group, dirs):
            h[orbit] = rng.uniform(0.8, 1.3)
        h *= scale
        if perturb == "support":
            h *= 1.0 + 1e-11 * rng.uniform(-1.0, 1.0, len(h))
        if perturb == "rotation":
            turn = Rotation.from_rotvec(3e-11 * np.array([0.3, -0.5, 0.8]))
            dirs = dirs @ turn.as_matrix().T
        body = SupportPolytope(dim=3, normals=dirs, support=h)
        grid = build_grid(3, 800, seed=5)
        ok, dev, method = is_invariant(body, tetra_group, grid)
        assert ok and method == "constraint-match"
        assert dev == reference_invariance_bound(body, tetra_group)
        assert_bound_covers_probe(dev, body, tetra_group, grid)


def _kd_is_invariant(body, group, grid):
    """is_invariant with every image g v_i matched to its nearest active
    normal by a k-d tree query, with no reach, and the dense probe deciding
    when the bound exceeds INVARIANCE_TOL: the reference of the
    nearest_within match."""
    from scipy.spatial import cKDTree

    probed, verts = bodies.active_part(body)
    images = group.apply(probed.normals).reshape(-1, body.dim)
    _, match = cKDTree(probed.normals).query(images)
    delta = float(np.max(np.linalg.norm(images - probed.normals[match],
                                        axis=1)))
    eps = float(np.max(np.abs(np.tile(probed.support, group.order)
                              - probed.support[match])))
    radius = float(np.max(np.linalg.norm(verts, axis=1)))
    bound = radius * (eps + radius * delta) / float(np.min(probed.support))
    if bound <= bodies.INVARIANCE_TOL:
        return True, bound, "constraint-match"
    return (*dense_is_invariant(body, group, grid), "probe")


def _pooled(group, n, seed, circum=False):
    """A criterion-9 body: shifted-ball constraints pooled under group."""
    from dualminkowski.constructions import (orbit_intersection_body,
                                             orbit_intersection_body_circum)

    if circum:
        theta = 2.0 * math.pi * np.arange(256) / 256
        base = shifted_ball_polytope(
            np.column_stack([np.cos(theta), np.sin(theta)]), 1.0,
            np.array([-0.3, 0.0]))
        return orbit_intersection_body_circum(group, base, seed=seed)[0]
    dirs = fibonacci_sphere_nodes(160) if n == 3 else \
        build_grid(n, 60, "monte-carlo", seed=1).nodes
    base = shifted_ball_polytope(dirs, 2.0, np.eye(n)[0] * 0.5)
    return orbit_intersection_body(group, base, seed=seed,
                                   grid=probe_grid(n))[0]


class TestConstraintMatchPinned:
    """is_invariant's nearest_within match gives the verdict, deviation and
    method of the k-d tree match it replaced, bit for bit."""

    @pytest.mark.parametrize("make, n, seed, circum", [
        (lambda: cyclic_rotation(5), 2, 1, False),
        (lambda: cyclic_rotation(3), 2, 3, True),
        (lambda: simplex_symmetry(3), 3, 0, False),
        (lambda: simplex_symmetry(3), 3, 1, False),
        (lambda: simplex_symmetry(3), 3, 3, False),
        (lambda: direct_sum([cyclic_rotation(3), cyclic_rotation(5)]), 4, 1,
         False),
    ], ids=["cyclic5-n2", "circum-cyclic3-n2", "tetrahedral-0",
            "tetrahedral-1", "tetrahedral-3", "cyclic3+cyclic5-n4"])
    def test_pooled_bodies(self, make, n, seed, circum):
        group = make()
        body = _pooled(group, n, seed, circum)
        grid = probe_grid(n)
        got = is_invariant(body, group, grid)
        assert got[2] == "constraint-match"
        assert got == _kd_is_invariant(body, group, grid)

    def test_images_that_miss_every_normal_go_to_the_probe(self,
                                                           tetra_group):
        """Normals turned by 1e-8 off an invariant set: some image is more
        than INVARIANCE_TOL from every normal, so nearest_within matches
        none there, and the probe decides with the deviation it gave
        after the k-d tree match."""
        from scipy.spatial.transform import Rotation

        from dualminkowski.groups import orbits
        from dualminkowski.sphere import nearest_within

        dirs = invariant_directions(tetra_group, 162)
        h = np.empty(len(dirs))
        rng = np.random.default_rng(12)
        for orbit in orbits(tetra_group, dirs):
            h[orbit] = rng.uniform(0.8, 1.3)
        turn = Rotation.from_rotvec(1e-8 * np.array([0.3, -0.5, 0.8]))
        body = SupportPolytope(dim=3, normals=dirs @ turn.as_matrix().T,
                               support=h)
        probed, _ = bodies.active_part(body)
        images = tetra_group.apply(probed.normals).reshape(-1, 3)
        match, _ = nearest_within(probed.normals, images,
                                  bodies.INVARIANCE_TOL)
        assert np.any(match < 0)
        grid = build_grid(3, 800, seed=5)
        got = is_invariant(body, tetra_group, grid)
        assert got[2] == "probe"
        assert got == _kd_is_invariant(body, tetra_group, grid)

    def test_small_body_keeps_the_match(self, tetra_group):
        """A body of radius 0.5 turned by 7e-10: images lie up to 1.4e-9
        from their normals, beyond INVARIANCE_TOL, but R^2 delta / h_min
        stays under it, so the match still decides. The reach
        2 INVARIANCE_TOL h_min / R^2 (about 4e-9 here) finds them."""
        from scipy.spatial.transform import Rotation

        dirs = invariant_directions(tetra_group, 642)
        turn = Rotation.from_rotvec(7e-10 * np.array([0.3, -0.5, 0.8])
                                    / np.linalg.norm([0.3, -0.5, 0.8]))
        body = ball_polytope(dirs @ turn.as_matrix().T, radius=0.5)
        probed, _ = bodies.active_part(body)
        images = tetra_group.apply(probed.normals).reshape(-1, 3)
        nearest = np.argmax(images @ probed.normals.T, axis=1)
        delta = np.max(np.linalg.norm(images - probed.normals[nearest],
                                      axis=1))
        assert delta > bodies.INVARIANCE_TOL
        grid = build_grid(3, 800, seed=5)
        got = is_invariant(body, tetra_group, grid)
        assert got[2] == "constraint-match"
        assert got == _kd_is_invariant(body, tetra_group, grid)

    def test_tiny_body_searches_locally(self, tetra_group, tetra_directions):
        """At radius 1e-8 the reach 2 INVARIANCE_TOL h_min / R^2 would be
        0.2, and the 15408 images would be compared with so many normals
        that the heap peaked at 469 MiB; groups.MERGE_TOL caps the reach,
        and it peaks at 1.9 MiB. The images match to rounding, so the k-d
        tree's verdict stands."""
        body = ball_polytope(tetra_directions, radius=1e-8)
        grid = build_grid(3, 800, seed=5)
        active = bodies.active_part(body)
        peak = heap_peak_mib(
            lambda: is_invariant(body, tetra_group, grid, active=active))
        assert peak < 5.0
        got = is_invariant(body, tetra_group, grid)
        assert got[2] == "constraint-match"
        assert got == _kd_is_invariant(body, tetra_group, grid)


def _ref_vertex_enumeration(body):
    """Qhull's raw intersection count and the all-pairs greedy dedupe
    vertex_enumeration is pinned to."""
    halfspaces = np.column_stack([body.normals, -body.support])
    verts = scipy.spatial.HalfspaceIntersection(
        halfspaces, np.zeros(body.dim)).intersections
    scale = float(np.max(np.abs(verts))) or 1.0
    kept = []
    for v in verts:
        if not kept or np.min(np.linalg.norm(np.array(kept) - v, axis=1)) > 1e-9 * scale:
            kept.append(v)
    return verts.shape[0], np.array(kept)


class TestVertexDedupePinned:
    def test_pooled_body(self, tetra_group):
        from dualminkowski.constructions import (_pool_orbit_constraints,
                                                 random_generic_rotation)

        base = shifted_ball_polytope(fibonacci_sphere_nodes(160), 2.0,
                                     np.array([0.5, 0.0, 0.0]))
        h = random_generic_rotation(tetra_group, np.array([-1.0, 0.0, 0.0]),
                                    seed=0)
        body = _pool_orbit_constraints(tetra_group, base, h)
        _, want = _ref_vertex_enumeration(body)
        assert np.array_equal(vertex_enumeration(body), want)

    def test_invariant_ball(self, tetra_directions):
        body = ball_polytope(tetra_directions)
        _, want = _ref_vertex_enumeration(body)
        assert np.array_equal(vertex_enumeration(body), want)

    def test_random_polytopes(self):
        rng = np.random.default_rng(70)
        for dim, facets in [(2, 9), (3, 12), (3, 40), (4, 30)]:
            body = random_polytope(rng, facets, dim=dim)
            _, want = _ref_vertex_enumeration(body)
            assert np.array_equal(vertex_enumeration(body), want)

    def test_octahedron_duplicates_merged(self):
        """Four planes meet at each vertex up to a 1e-12 jitter of the
        normals, so Qhull reports each vertex more than once."""
        signs = np.array([[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                          for c in (-1.0, 1.0)])
        rng = np.random.default_rng(0)
        normals = signs / np.sqrt(3.0) + 1e-12 * rng.standard_normal((8, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        body = SupportPolytope(dim=3, normals=normals,
                               support=np.full(8, 1.0 / np.sqrt(3.0)))
        raw, want = _ref_vertex_enumeration(body)
        got = vertex_enumeration(body)
        assert np.array_equal(got, want)
        assert raw > got.shape[0] == 6

    def test_greedy_chain(self, cube, monkeypatch):
        """The middle point of a chain is within the merge radius of both
        ends, which are farther apart: the first end hides it, and the
        second end stays because the hidden point does not count."""
        chain = np.array([[1.0, 0.0, 0.0], [1.0 + 0.8e-9, 0.0, 0.0],
                          [1.0 + 1.6e-9, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])

        class ChainQhull:
            def __init__(self, halfspaces, interior):
                self.intersections = chain

        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection",
                            ChainQhull)
        raw, want = _ref_vertex_enumeration(cube)
        assert np.array_equal(want, chain[[0, 2, 3, 4, 5]])
        assert np.array_equal(vertex_enumeration(cube), want)


class TestTransforms:
    def test_translate_then_center(self, grid3_small):
        rng = np.random.default_rng(11)
        body = random_polytope(rng, 10)
        shifted = translate(body, np.array([0.2, -0.1, 0.05]))
        recentered = centered(shifted, grid3_small)
        stats = geometry_stats(recentered, grid3_small)
        assert np.linalg.norm(stats["centroid"]) <= 1e-3 * stats["circumradius"]

    def test_prune_drops_redundant(self):
        normals = np.vstack([np.eye(3), -np.eye(3),
                             np.array([[0.0, 0.0, 1.0]])])
        h = np.array([1, 1, 1, 1, 1, 1, 9.0])
        body = SupportPolytope(dim=3, normals=normals, support=h)
        pruned = prune(body)
        assert pruned.facet_count == 6

    def test_shifted_ball_extrema(self, grid3_small):
        body = shifted_ball_polytope(fibonacci_sphere_nodes(320), 2.0,
                                     np.array([0.5, 0.0, 0.0]))
        rho, _ = radial_profile(body, grid3_small.nodes)
        assert rho.min() == pytest.approx(1.5, rel=0.01)
        assert rho.max() == pytest.approx(2.5, rel=0.02)


class TestStarBody:
    def test_ball(self):
        q = StarBody.ball(3, radius=2.0)
        pts = fibonacci_sphere_nodes(10)
        assert np.allclose(q.radial(pts), 2.0)
        assert np.allclose(q.radial_homogeneous(4.0 * pts), 0.5)

    def test_ellipsoid(self):
        q = StarBody.ellipsoid([1.0, 2.0, 4.0])
        assert q.radial(np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(4.0)
        assert q.radial(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            StarBody(dim=3, radial_fn=lambda pts: pts[:, 0])

    def test_transform_matches_polytope_transform(self):
        from dualminkowski.measures import transform_polytope

        rng = np.random.default_rng(12)
        body = random_polytope(rng, 9)
        phi = np.diag([2.0, 1.0, 0.5])
        star = StarBody.from_polytope(body).transformed(phi)
        moved = transform_polytope(body, phi)
        probe = fibonacci_sphere_nodes(64)
        rho_star = star.radial(probe)
        rho_body, _ = radial_profile(moved, probe)
        assert np.allclose(rho_star, rho_body, rtol=1e-9)

    def test_invariance_check(self, tetra_group):
        ok, dev = StarBody.ball(3).is_invariant(tetra_group)
        assert ok and dev == 0.0
        skew = StarBody.ellipsoid([1.0, 1.0, 1.5])
        ok, dev = skew.is_invariant(tetra_group)
        assert not ok and dev > 0.01

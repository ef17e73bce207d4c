import math

import numpy as np
import pytest

from dualminkowski import constructions
from dualminkowski.bodies import (
    SupportPolytope,
    active_part,
    ball_polytope,
    cube_polytope,
    is_invariant,
    radial_profile,
    shifted_ball_polytope,
)
from dualminkowski.constructions import (
    CONE_TOL,
    _pool_orbit_constraints,
    certify_asymmetry,
    dirichlet_voronoi_cone,
    fundamental_domain_check,
    orbit_intersection_body,
    orbit_intersection_body_circum,
    radial_extremum_is_unique,
    random_generic_rotation,
)
from dualminkowski.groups import (
    OrthogonalGroup,
    cube_rotation,
    cyclic_rotation,
    direct_sum,
    simplex_symmetry,
    standard_group,
)
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes, probe_grid

from conftest import (assert_bound_covers_probe, dense_asymmetry,
                      dense_is_invariant, reference_invariance_bound)


@pytest.fixture(scope="module")
def cert_grid():
    return build_grid(3, 800, seed=5)


@pytest.fixture(scope="module")
def shifted_base():
    return shifted_ball_polytope(fibonacci_sphere_nodes(160), 2.0,
                                 np.array([0.5, 0.0, 0.0]))


def circle_polytope(count, center):
    theta = 2.0 * math.pi * np.arange(count) / count
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return SupportPolytope(dim=2, normals=dirs,
                           support=1.0 + dirs @ np.asarray(center))


class TestExtremumCheck:
    def test_shifted_ball_min_unique(self, shifted_base):
        ok, u = radial_extremum_is_unique(shifted_base, "min")
        assert ok
        assert u @ np.array([-1.0, 0.0, 0.0]) > 0.99

    def test_centered_ball_min_not_unique(self):
        body = ball_polytope(fibonacci_sphere_nodes(200))
        ok, _ = radial_extremum_is_unique(body, "min")
        assert not ok

    def test_max_side(self, shifted_base):
        ok, u = radial_extremum_is_unique(shifted_base, "max")
        assert ok
        assert u @ np.array([1.0, 0.0, 0.0]) > 0.99


class TestGenericRotation:
    def test_seed_determinism(self):
        g = cyclic_rotation(3)
        z = np.array([1.0, 0.0])
        h1 = random_generic_rotation(g, z, seed=9)
        h2 = random_generic_rotation(g, z, seed=9)
        assert np.array_equal(h1, h2)

    def test_margin_satisfied(self):
        g = cyclic_rotation(3)
        z = np.array([1.0, 0.0])
        for seed in range(20):
            h = random_generic_rotation(g, z, seed=seed)
            hz = h @ z
            orbit = g.apply(hz[None])[:, 0, :]
            assert np.min(np.linalg.norm(orbit + hz[None], axis=1)) >= \
                constructions.ROTATION_MARGIN

    def test_acceptance_rate_high(self, monkeypatch):
        """Rejection has measure zero; nearly every first draw is accepted."""
        monkeypatch.setattr(constructions, "ROTATION_TRIES", 1)
        g = cyclic_rotation(3)
        z = np.array([1.0, 0.0])
        accepted_first = 0
        for seed in range(200):
            h = random_generic_rotation(g, z, seed=seed)
            accepted_first += 1
        assert accepted_first == 200

    def test_margin_monotonicity(self, monkeypatch):
        """A larger margin can only reject more first draws."""
        monkeypatch.setattr(constructions, "ROTATION_TRIES", 1)
        g = simplex_symmetry(3)
        z = np.array([0.0, 0.0, 1.0])

        def first_draw_ok(margin):
            monkeypatch.setattr(constructions, "ROTATION_MARGIN", margin)
            count = 0
            for seed in range(100):
                try:
                    random_generic_rotation(g, z, seed=seed)
                    count += 1
                except ValueError as exc:
                    assert f"in 1 tries (margin {margin:g})" in str(exc)
            return count

        assert first_draw_ok(0.4) >= first_draw_ok(0.8)


class TestOrbitIntersection:
    def test_simplex_group_output(self, tetra_group, shifted_base, cert_grid):
        body, cert = orbit_intersection_body(tetra_group, shifted_base, seed=7,
                                             grid=cert_grid)
        assert cert.invariance_deviation <= 1e-9
        assert cert.max_gap > 0.05
        assert cert.non_origin_symmetric

    def test_negation_group_rejected(self, shifted_base):
        with pytest.raises(ValueError, match="-I"):
            orbit_intersection_body(standard_group("negation", n=3),
                                    shifted_base)

    def test_degenerate_centered_base(self, tetra_group, cert_grid):
        """A centered ball has no unique minimal radius; the margin check
        rejects it rather than emitting a vacuous certificate."""
        body = ball_polytope(fibonacci_sphere_nodes(160))
        with pytest.raises(ValueError, match="unique minimal radius"):
            orbit_intersection_body(tetra_group, body, grid=cert_grid)

    def test_constraint_pool_is_group_stable(self, tetra_group, shifted_base,
                                             cert_grid):
        body, _ = orbit_intersection_body(tetra_group, shifted_base, seed=1,
                                          grid=cert_grid)
        for g in tetra_group.elements[:4]:
            images = body.normals @ g.T
            nearest = np.argmax(images @ body.normals.T, axis=1)
            dist = np.linalg.norm(images - body.normals[nearest], axis=1)
            assert np.max(dist) <= 1e-9
            assert np.allclose(body.support[nearest], body.support, atol=1e-9)

    def test_circum_variant(self, cert_grid):
        g = cyclic_rotation(3)
        base = circle_polytope(256, [-0.3, 0.0])
        body, cert, checks = orbit_intersection_body_circum(g, base, seed=3)
        assert cert.non_origin_symmetric
        assert checks["antipode_interior"]
        assert checks["antipodal_radius"] < checks["base_max_radius"] - 1e-9

    def test_centroid_near_origin(self, tetra_group, shifted_base, grid3_small):
        body, _ = orbit_intersection_body(tetra_group, shifted_base, seed=5)
        from dualminkowski.bodies import geometry_stats

        stats = geometry_stats(body, grid3_small)
        assert np.linalg.norm(stats["centroid"]) <= 1e-3 * stats["circumradius"]


class TestAsymmetryCertificate:
    def test_cube_symmetric(self, cert_grid):
        cert = certify_asymmetry(cube_polytope(3), cert_grid)
        assert cert.max_gap <= 1e-10
        assert not cert.non_origin_symmetric

    def test_off_center_simplexish_body(self, cert_grid):
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
                         [-1, -1, -1] / np.sqrt(3)])
        body = SupportPolytope(dim=3, normals=dirs,
                               support=np.array([1.0, 1.0, 1.0, 0.4]))
        cert = certify_asymmetry(body, cert_grid)
        assert cert.max_gap > 0.1
        assert cert.non_origin_symmetric

    def test_mirror_image_same_gap(self, cert_grid):
        rng = np.random.default_rng(50)
        from conftest import random_polytope

        body = random_polytope(rng, 9)
        mirrored = SupportPolytope(dim=3, normals=-body.normals,
                                   support=body.support)
        a = certify_asymmetry(body, cert_grid)
        b = certify_asymmetry(mirrored, cert_grid)
        assert a.max_gap == pytest.approx(b.max_gap, rel=1e-12)


def _assert_probes_match_dense(body, group, grid, method, cert=None):
    """is_invariant decides by method, and its deviation is the reference
    bound (constraint-match) or the dense probe's, bit for bit (probe);
    certify_asymmetry equals the dense probe bit for bit.

    cert, when given, is the certificate a construction returned for body.
    """
    want_ok, want_dev = dense_is_invariant(body, group, grid)
    got_ok, got_dev, got_method = is_invariant(body, group, grid)
    assert got_method == method
    if method == "probe":
        assert got_ok == want_ok and got_dev == want_dev
    else:
        assert got_ok and got_dev == reference_invariance_bound(body, group)
        assert_bound_covers_probe(got_dev, body, group, grid)
    if cert is None:
        cert = certify_asymmetry(body, grid, invariance=(got_dev, got_method))
    assert cert.invariance_deviation == got_dev
    assert cert.invariance_method == method
    gap, witness = dense_asymmetry(body, grid)
    assert cert.max_gap == gap and np.array_equal(cert.witness, witness)
    assert cert.active_constraints == active_part(body)[0].facet_count
    assert 0 < cert.active_constraints <= body.facet_count


class TestProbesEqualDense:
    """The certificates read active_part(body); the dense probes over every
    halfspace and the dense constraint match are the references."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pooled_bodies(self, tetra_group, shifted_base, cert_grid, seed):
        body, cert = orbit_intersection_body(tetra_group, shifted_base,
                                             seed=seed, grid=cert_grid)
        assert cert.active_constraints < body.facet_count
        _assert_probes_match_dense(body, tetra_group, cert_grid,
                                   "constraint-match", cert)

    @pytest.mark.parametrize("seed", range(20))
    def test_bound_covers_probe_on_pooled_bodies(self, tetra_group,
                                                 shifted_base, cert_grid,
                                                 seed):
        """The probe reads the active part, which gives the full body's
        radial function bit for bit."""
        body, cert = orbit_intersection_body(tetra_group, shifted_base,
                                             seed=seed, grid=cert_grid)
        assert cert.invariance_method == "constraint-match"
        assert_bound_covers_probe(cert.invariance_deviation,
                                  active_part(body)[0], tetra_group, cert_grid)

    @pytest.mark.parametrize("construct", [orbit_intersection_body,
                                           orbit_intersection_body_circum])
    def test_constructions_prune_once(self, tetra_group, shifted_base,
                                      cert_grid, monkeypatch, construct):
        from dualminkowski import bodies, constructions

        calls = []

        def counted(body):
            calls.append(body.facet_count)
            return active_part(body)

        monkeypatch.setattr(bodies, "active_part", counted)
        monkeypatch.setattr(constructions, "active_part", counted)
        body, cert, *_ = construct(tetra_group, shifted_base, seed=1,
                                   grid=cert_grid)
        assert calls == [body.facet_count]
        monkeypatch.undo()
        _assert_probes_match_dense(body, tetra_group, cert_grid,
                                   "constraint-match", cert)

    def test_cube_every_constraint_active(self, cert_grid):
        cube = cube_polytope(3)
        assert active_part(cube)[0].facet_count == 6
        _assert_probes_match_dense(cube, cube_rotation(3), cert_grid,
                                   "constraint-match")

    def test_duplicated_constraint(self, cert_grid):
        """Exact ties go to the first index; both copies stay."""
        normals = np.vstack([np.eye(3), -np.eye(3), np.eye(3)[:1]])
        body = SupportPolytope(dim=3, normals=normals, support=np.ones(7))
        assert active_part(body)[0].facet_count == 7
        _assert_probes_match_dense(body, cube_rotation(3), cert_grid,
                                   "constraint-match")

    def test_constraints_touching_at_a_vertex(self, cert_grid):
        """Planes through the corner (1, 1, 1) and slightly beyond it, half
        and twice the probe slack (1e-6 of max h) away. The rotations move
        the corner normal onto no normal, so the probe decides."""
        corner = np.ones(3) / np.sqrt(3.0)
        normals = np.vstack([np.eye(3), -np.eye(3), corner, -corner, corner])
        top = np.sqrt(3.0)
        h = np.array([1.0] * 6 + [top, top + 0.5e-6 * top, top + 2e-6 * top])
        body = SupportPolytope(dim=3, normals=normals, support=h)
        kept, _ = active_part(body)
        assert kept.facet_count == 8
        assert np.array_equal(kept.support, h[:8])
        # probe the corner directions themselves too
        nodes = np.vstack([cert_grid.nodes, corner, -corner])
        rho, _ = radial_profile(body, nodes)
        rho_kept, _ = radial_profile(kept, nodes)
        assert np.array_equal(rho, rho_kept)
        _assert_probes_match_dense(body, cube_rotation(3), cert_grid, "probe")

    @pytest.mark.parametrize("group, n", [
        (cyclic_rotation(5), 2),
        (direct_sum([cyclic_rotation(3), cyclic_rotation(5)]), 4),
    ], ids=["cyclic5-n2", "cyclic3+cyclic5-n4"])
    def test_pooled_bodies_other_dimensions(self, group, n):
        grid = probe_grid(n)
        base = shifted_ball_polytope(build_grid(n, 60, "monte-carlo",
                                                seed=1).nodes,
                                     2.0, np.eye(n)[0] * 0.5)
        body, cert = orbit_intersection_body(group, base, seed=1, grid=grid)
        assert cert.active_constraints < body.facet_count
        _assert_probes_match_dense(body, group, grid, "constraint-match", cert)


def _ref_pool_orbit_constraints(group, base, rotation):
    """The row-by-row merge _pool_orbit_constraints is pinned to."""
    rotated = base.normals @ rotation.T
    all_normals = np.concatenate(group.apply(rotated), axis=0)
    all_support = np.tile(base.support, group.order)
    order = np.lexsort(np.round(all_normals, 9).T)
    kept_n, kept_h = [], []
    for v, h in zip(all_normals[order], all_support[order]):
        if kept_n and np.linalg.norm(kept_n[-1] - v) <= 1e-9:
            kept_h[-1] = min(kept_h[-1], float(h))
        else:
            kept_n.append(v)
            kept_h.append(float(h))
    return np.array(kept_n), np.array(kept_h)


class TestPoolPinned:
    def _assert_same(self, group, base, rotation):
        body = _pool_orbit_constraints(group, base, rotation)
        want_n, want_h = _ref_pool_orbit_constraints(group, base, rotation)
        assert np.array_equal(body.normals, want_n)
        assert np.array_equal(body.support, want_h)
        return body

    @pytest.mark.parametrize("seed", range(3))
    def test_generic_rotation(self, tetra_group, shifted_base, seed):
        h = random_generic_rotation(tetra_group, np.array([-1.0, 0.0, 0.0]),
                                    seed=seed)
        body = self._assert_same(tetra_group, shifted_base, h)
        assert body.facet_count == 160 * 24

    def test_group_stable_base_merges(self):
        """A regular 60-gon under rotation by 2 pi / 5 maps onto itself."""
        base = circle_polytope(60, [-0.3, 0.0])
        body = self._assert_same(cyclic_rotation(5), base, np.eye(2))
        assert body.facet_count == 60

    def test_near_duplicates_and_chains(self):
        """Normals duplicated within 1e-9 with other support numbers, a
        chain whose ends are 1.6e-9 apart: the third link starts a new row
        because it is compared with the first, not with its neighbour; and a
        lone pair 2e-9 apart, a run of two rows that stays two."""
        rng = np.random.default_rng(3)
        dirs = fibonacci_sphere_nodes(40)
        t = np.cross(dirs[5], [0.0, 0.0, 1.0])
        t /= np.linalg.norm(t)
        s = np.cross(dirs[20], [0.0, 0.0, 1.0])
        s /= np.linalg.norm(s)
        copies = [dirs[7] + 3e-10 * rng.standard_normal(3),
                  dirs[11], dirs[5] + 0.8e-9 * t, dirs[5] + 1.6e-9 * t,
                  dirs[20] + 2e-9 * s]
        normals = np.vstack([dirs, copies])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        support = rng.uniform(0.9, 1.1, normals.shape[0])
        base = SupportPolytope(dim=3, normals=normals, support=support)
        trivial = OrthogonalGroup(dim=3, elements=np.eye(3)[None])
        body = self._assert_same(trivial, base, np.eye(3))
        assert body.facet_count == 42
        assert np.min(body.support) == np.min(support)


    def test_merged_row_joins_the_last_kept_row(self):
        """Rows a, c, d in sorted order, a and c 1.6e-9 apart and d within
        1e-9 of both: a and c stay, and d's smaller support number goes to
        c, the last kept row before it, as in the row-by-row merge."""
        dirs = fibonacci_sphere_nodes(40)
        a = dirs[1]
        t = np.cross(a, [0.0, 0.0, 1.0])
        t /= np.linalg.norm(t)
        s = np.cross(a, t)
        s /= np.linalg.norm(s)
        c = a + 1.6e-9 * t
        d = a + 9.4585868565457186e-10 * t + 9.790671674771245e-11 * s
        normals = np.vstack([dirs, c, d])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        a, c, d = normals[[1, 40, 41]]
        assert np.linalg.norm(a - c) > 1.5e-9
        assert max(np.linalg.norm(a - d), np.linalg.norm(c - d)) < 0.96e-9
        rows = np.lexsort(np.round(normals, 9).T).tolist()
        assert rows.index(1) + 1 == rows.index(40) == rows.index(41) - 1
        support = np.ones(42)
        support[41] = 0.9
        base = SupportPolytope(dim=3, normals=normals, support=support)
        trivial = OrthogonalGroup(dim=3, elements=np.eye(3)[None])
        body = self._assert_same(trivial, base, np.eye(3))
        assert body.facet_count == 41
        at = np.flatnonzero(body.support == 0.9)
        assert at.size == 1 and np.array_equal(body.normals[at[0]], c)


class TestDirichletVoronoi:
    def test_cyclic3_wedge(self):
        cone = dirichlet_voronoi_cone(cyclic_rotation(3), np.array([1.0, 0.0]))
        assert cone.normals.shape[0] == 2
        assert np.max(np.abs(cone.normals @ np.zeros(2))) == 0.0  # homogeneous
        theta = np.linspace(-math.pi, math.pi, 30000, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        frac = (cone.margin(pts) <= CONE_TOL).mean()
        assert frac == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert cone.margin(np.array([[1.0, 0.0]]))[0] <= CONE_TOL

    def test_trivial_group_whole_space(self):
        g = standard_group("cyclic", order=3)
        from dualminkowski.groups import OrthogonalGroup

        trivial = OrthogonalGroup(dim=2, elements=np.eye(2)[None])
        cone = dirichlet_voronoi_cone(trivial, np.array([1.0, 0.0]))
        assert cone.normals.shape[0] == 0
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((100, 2))
        assert np.all(cone.margin(pts) == -np.inf)

    def test_non_generic_anchor_rejected(self):
        g = simplex_symmetry(3)
        # a rotation axis of the group is fixed by some element
        axis = None
        for m in g.elements[1:]:
            vals, vecs = np.linalg.eig(m)
            for j, v in enumerate(vals):
                if abs(v - 1.0) < 1e-9:
                    axis = np.real(vecs[:, j])
                    axis /= np.linalg.norm(axis)
                    break
            if axis is not None:
                break
        with pytest.raises(ValueError, match="non-generic"):
            dirichlet_voronoi_cone(g, axis)

    @pytest.mark.parametrize("group_name,params,anchor", [
        ("cyclic", {"order": 3}, [1.0, 0.23]),
        ("cyclic", {"order": 5}, [1.0, 0.23]),
        ("simplex-symmetry", {"m": 3}, [1.0, 0.23, -0.41]),
    ])
    def test_fundamental_domain(self, group_name, params, anchor):
        g = standard_group(group_name, n=len(anchor), **params)
        z = np.asarray(anchor) / np.linalg.norm(anchor)
        cone = dirichlet_voronoi_cone(g, z)
        check = fundamental_domain_check(g, cone, 10000, seed=1)
        assert check["all_covered"]
        assert check["interiors_disjoint"]


def _ref_dirichlet_normals(group, anchor):
    """The element-by-element list scan dirichlet_voronoi_cone is pinned to:
    g z - z joins the normals unless an earlier one lies within 1e-9."""
    z = np.asarray(anchor, dtype=float)
    z = z / np.linalg.norm(z)
    normals = []
    for g in group.elements:
        if np.max(np.abs(g - np.eye(group.dim))) <= 1e-12:
            continue
        a = g @ z - z
        if not normals or \
                np.min(np.linalg.norm(np.array(normals) - a, axis=1)) > 1e-9:
            normals.append(a)
    return np.array(normals).reshape(-1, group.dim)


class TestDirichletVoronoiPinned:
    @pytest.mark.parametrize("group, anchor", [
        (cyclic_rotation(3), [1.0, 0.0]),
        (OrthogonalGroup(dim=2, elements=np.eye(2)[None]), [1.0, 0.0]),
        (cyclic_rotation(3), [1.0, 0.23]),
        (cyclic_rotation(5), [1.0, 0.23]),
        (simplex_symmetry(3), [1.0, 0.23, -0.41]),
    ], ids=["cyclic3-axis", "trivial", "cyclic3", "cyclic5", "tetrahedral"])
    def test_cones_of_this_module(self, group, anchor):
        cone = dirichlet_voronoi_cone(group, np.array(anchor))
        assert np.array_equal(cone.normals,
                              _ref_dirichlet_normals(group, anchor))

    @pytest.mark.parametrize("group", [
        cyclic_rotation(5), simplex_symmetry(2), simplex_symmetry(3),
        cube_rotation(3), direct_sum([cyclic_rotation(3), cyclic_rotation(3)]),
    ], ids=["cyclic5", "triangle", "tetrahedral", "cube-rotation",
            "cyclic3+cyclic3"])
    def test_random_anchors(self, group):
        rng = np.random.default_rng(group.order)
        for _ in range(8):
            anchor = rng.standard_normal(group.dim)
            cone = dirichlet_voronoi_cone(group, anchor)
            assert np.array_equal(cone.normals,
                                  _ref_dirichlet_normals(group, anchor))
            assert cone.normals.shape[0] == group.order - 1


class TestSeedSweep:
    def test_asymmetry_rate(self, tetra_group, shifted_base, cert_grid):
        """Light version of the acceptance sweep: 20 seeds, all asymmetric."""
        wins = 0
        for seed in range(20):
            _, cert = orbit_intersection_body(tetra_group, shifted_base,
                                              seed=seed, grid=cert_grid)
            wins += cert.non_origin_symmetric
        assert wins == 20

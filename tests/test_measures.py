import math

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import ConvexHull

from dualminkowski import bodies, measures, solver, sphere
from dualminkowski.bodies import (
    StarBody,
    SupportPolytope,
    ball_polytope,
    cube_polytope,
    radial_profile,
    shifted_ball_polytope,
    vertex_enumeration,
)
from dualminkowski.groups import orbits, symmetrize_density
from dualminkowski.measures import (
    MeasureSpec,
    affine_invariance_check,
    dual_curvature_measure,
    dual_curvature_via_boundary,
    dual_mixed_volume,
    entropy_gradient,
    lp_dual_curvature_measure,
    transform_polytope,
)
from dualminkowski.solver import ProblemSpec
from dualminkowski.sphere import SphericalGrid, build_grid, fibonacci_sphere_nodes, \
    stable_sum, unit_ball_volume

from conftest import heap_peak_mib, random_polytope

BALL3 = StarBody.ball(3)
KAPPA3 = unit_ball_volume(3)


@pytest.fixture(scope="module")
def invariant_body(tetra_group, tetra_directions):
    rng = np.random.default_rng(20)
    h = np.empty(len(tetra_directions))
    for orbit in orbits(tetra_group, tetra_directions):
        h[orbit] = rng.uniform(0.8, 1.25)
    return SupportPolytope(dim=3, normals=tetra_directions, support=h)


@pytest.fixture(scope="module")
def uniform_mu(tetra_directions, grid3):
    return MeasureSpec.from_density(lambda U: np.full(U.shape[0], 1.0 / 3.0),
                                    grid3, tetra_directions)


class TestDualMixedVolume:
    def test_ball_any_q(self, grid3):
        body = ball_polytope(fibonacci_sphere_nodes(1280))
        for q in (0.7, 2.0, -1.5):
            assert dual_mixed_volume(body, BALL3, q, grid3) == pytest.approx(
                KAPPA3, rel=0.01)

    def test_q_equals_n_is_volume(self, grid3):
        cube = cube_polytope(3)
        for q_body in (BALL3, StarBody.ellipsoid([1.0, 2.0, 3.0])):
            assert dual_mixed_volume(cube, q_body, 3.0, grid3) == pytest.approx(
                8.0, rel=0.01)

    def test_scaled_ball(self, grid3):
        r = 1.7
        body = ball_polytope(fibonacci_sphere_nodes(1280), radius=r)
        assert dual_mixed_volume(body, BALL3, 2.0, grid3) == pytest.approx(
            r ** 2 * KAPPA3, rel=0.01)

    def test_homogeneity(self, grid3_small):
        rng = np.random.default_rng(21)
        body = random_polytope(rng, 9)
        lam, q = 2.3, 1.7
        v1 = dual_mixed_volume(body, BALL3, q, grid3_small)
        v2 = dual_mixed_volume(body.with_support(lam * body.support), BALL3, q,
                               grid3_small)
        assert v2 == pytest.approx(lam ** q * v1, rel=1e-10)

    def test_q_zero_rejected(self, grid3_small):
        with pytest.raises(ValueError, match="q != 0"):
            dual_mixed_volume(cube_polytope(3), BALL3, 0.0, grid3_small)

    def test_negative_q_supported(self, grid3_small):
        rng = np.random.default_rng(22)
        body = random_polytope(rng, 8)
        assert dual_mixed_volume(body, BALL3, -2.0, grid3_small) > 0.0

    def test_lipschitz_in_support(self, grid3_small):
        """Weak-continuity smoke test: a support perturbation of size eps
        moves the dual volume by O(eps), with a stable constant."""
        rng = np.random.default_rng(23)
        body = random_polytope(rng, 9)
        direction = rng.standard_normal(body.facet_count)
        direction /= np.max(np.abs(direction))
        base = dual_mixed_volume(body, BALL3, 2.0, grid3_small)
        slopes = []
        for eps in (1e-3, 1e-4, 1e-5):
            moved = body.with_support(body.support + eps * direction)
            slopes.append(
                abs(dual_mixed_volume(moved, BALL3, 2.0, grid3_small) - base) / eps)
        assert max(slopes) <= 3.0 * min(slopes) + 1e-9
        assert max(slopes) <= 10.0 * base


class TestFacetAtoms:
    def test_partition_identity(self, grid3, invariant_body):
        atoms = dual_curvature_measure(invariant_body, BALL3, 2.0, grid3)
        vol = dual_mixed_volume(invariant_body, BALL3, 2.0, grid3)
        assert stable_sum(atoms) == pytest.approx(vol, rel=1e-12)

    def test_cube_atoms_are_cone_volumes(self, grid3):
        atoms = dual_curvature_measure(cube_polytope(3), BALL3, 3.0, grid3)
        assert np.allclose(atoms, 4.0 / 3.0, rtol=0.015)

    def test_redundant_facet_gets_zero(self, grid3_small):
        normals = np.vstack([np.eye(3), -np.eye(3),
                             np.array([[0.0, 0.0, 1.0]])])
        h = np.array([1, 1, 1, 1, 1, 1, 7.0])
        body = SupportPolytope(dim=3, normals=normals, support=h)
        atoms = dual_curvature_measure(body, BALL3, 2.0, grid3_small)
        assert atoms[6] == 0.0

    def test_orbit_constancy_on_symmetrized_grid(self, tetra_group,
                                                 tetra_directions,
                                                 invariant_body):
        """On a group-symmetrized grid the facet assignment is equivariant,
        so atoms are exactly constant along normal orbits."""
        base = build_grid(3, 1000)
        nodes = np.concatenate([base.nodes @ g.T for g in tetra_group.elements])
        weights = np.tile(base.weights / tetra_group.order, tetra_group.order)
        sym_grid = SphericalGrid(dim=3, nodes=nodes, weights=weights,
                                 scheme="fibonacci-sphere")
        atoms = dual_curvature_measure(invariant_body, BALL3, 2.0, sym_grid)
        for orbit in orbits(tetra_group, tetra_directions):
            vals = atoms[orbit]
            assert np.max(vals) - np.min(vals) <= 1e-10 * max(np.max(vals), 1e-300)


class TestLpWeighting:
    def test_p_zero_identity(self, grid3_small, invariant_body):
        a = lp_dual_curvature_measure(invariant_body, BALL3, 0.0, 2.0, grid3_small)
        b = dual_curvature_measure(invariant_body, BALL3, 2.0, grid3_small)
        assert np.array_equal(a, b)

    def test_ball_total_mass(self, grid3):
        r, p, q = 1.7, -1.0, 2.0
        body = ball_polytope(fibonacci_sphere_nodes(642), radius=r)
        total = stable_sum(lp_dual_curvature_measure(body, BALL3, p, q, grid3))
        assert total == pytest.approx(r ** (q - p) * KAPPA3, rel=0.01)

    def test_surface_area_measure_identity(self, grid3):
        """n * atom_i at q = n, Q = ball reproduces h^{1-p} * facet area."""
        cube = cube_polytope(3)
        for p in (-0.7, 0.0, 1.0):
            atoms = lp_dual_curvature_measure(cube, BALL3, p, 3.0, grid3)
            assert np.allclose(3.0 * atoms, 1.0 ** (1 - p) * 4.0, rtol=0.015)


class TestBoundaryOracle:
    def test_cube_exact(self):
        atoms = dual_curvature_via_boundary(cube_polytope(3), BALL3, 3.0)
        assert np.allclose(atoms, 4.0 / 3.0, rtol=1e-12)

    def test_octahedron_exact(self):
        """The polar of the regular octahedron is a cube, whose square faces
        Qhull splits into triangles: the diagonals are zero-length edges of
        the octahedron, and each facet's atom is still h * area / 3 = 1/6."""
        normals = np.array([[a, b, c] for a in (1.0, -1.0)
                            for b in (1.0, -1.0) for c in (1.0, -1.0)])
        body = SupportPolytope(dim=3, normals=normals / np.sqrt(3.0),
                               support=np.full(8, 1.0 / np.sqrt(3.0)))
        atoms = dual_curvature_via_boundary(body, BALL3, 3.0)
        assert np.allclose(atoms, 1.0 / 6.0, rtol=1e-12)

    def test_shifted_ball_volume_and_redundant_halfspaces(self):
        """At q = n the atoms sum to the volume, also where a facet's foot
        h_i v_i lies outside the facet; halfspaces that bound no facet get
        exactly 0."""
        center = np.array([0.3, -0.2, 0.1])
        ball = shifted_ball_polytope(fibonacci_sphere_nodes(162), 1.0, center)
        extra = fibonacci_sphere_nodes(20)
        body = SupportPolytope(
            dim=3, normals=np.vstack([ball.normals, extra]),
            support=np.concatenate([ball.support, 1.5 + extra @ center]))
        atoms = dual_curvature_via_boundary(body, BALL3, 3.0)
        volume = ConvexHull(vertex_enumeration(body)).volume
        assert stable_sum(atoms) == pytest.approx(volume, rel=1e-12)
        assert np.all(atoms[162:] == 0.0)

    def test_degree_converged(self, grid3, monkeypatch):
        """On the criterion-4 bodies the rule's degree is converged: twice
        the degree moves no atom by more than 1e-9 relative."""
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(10):
            body = random_polytope(rng, int(rng.integers(6, 13)), grid=grid3)
            for q in (1.0, 2.0, 3.0):
                a = dual_curvature_via_boundary(body, BALL3, q)
                with monkeypatch.context() as m:
                    m.setattr(measures, "BOUNDARY_DEGREE",
                              2 * measures.BOUNDARY_DEGREE)
                    b = dual_curvature_via_boundary(body, BALL3, q)
                active = b > 1e-12
                worst = max(worst, float(np.max(
                    np.abs(a[active] - b[active]) / b[active])))
        assert worst <= 1e-9

    def test_qhull_failure_names_the_polar_hull(self, monkeypatch):
        def failing_hull(points):
            raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", failing_hull)
        with pytest.raises(ValueError,
                           match="polar hull of the body's 6 facets failed"):
            dual_curvature_via_boundary(cube_polytope(3), BALL3, 2.0)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(24)
        body = random_polytope(rng, 8)
        lam, q = 1.9, 2.0
        a = dual_curvature_via_boundary(body, BALL3, q)
        b = dual_curvature_via_boundary(
            body.with_support(lam * body.support), BALL3, q)
        assert np.allclose(b, lam ** q * a, rtol=1e-6)

    def test_nonball_q_body(self, grid3):
        """The two routes must also agree for a genuinely varying Q."""
        rng = np.random.default_rng(26)
        body = random_polytope(rng, 8, grid=grid3)
        q_body = StarBody.ellipsoid([0.8, 1.0, 1.3])
        a = dual_curvature_measure(body, q_body, 1.5, grid3)
        b = dual_curvature_via_boundary(body, q_body, 1.5)
        active = b > 1e-12
        assert np.max(np.abs(a[active] - b[active]) / b[active]) <= 0.015

    def test_fans_in_blocks(self, monkeypatch):
        """The fans go in blocks of at most sphere.BLOCK_CELLS node
        coordinates: on a 642-facet ball the heap peaks under 24 MiB (61 MiB
        with every fan at once), and blocks of any size give the atoms of
        one whole block to 1e-14."""
        body = ball_polytope(fibonacci_sphere_nodes(642))
        assert heap_peak_mib(
            lambda: dual_curvature_via_boundary(body, BALL3, 2.0)) < 24.0
        q_body = StarBody.ellipsoid([0.8, 1.0, 1.3])
        blocked = dual_curvature_via_boundary(body, q_body, 1.5)
        fan = 3 * measures.BOUNDARY_DEGREE ** 2
        monkeypatch.setattr(sphere, "BLOCK_CELLS", 10 ** 9)
        whole = dual_curvature_via_boundary(body, q_body, 1.5)
        monkeypatch.setattr(sphere, "BLOCK_CELLS", 7 * fan)
        small = dual_curvature_via_boundary(body, q_body, 1.5)
        assert np.all(whole > 0.0)
        for atoms in (blocked, small):
            assert np.max(np.abs(atoms - whole) / whole) <= 1e-14

    def test_requires_n3(self, grid2):
        sq = SupportPolytope(dim=2, normals=np.vstack([np.eye(2), -np.eye(2)]),
                             support=np.ones(4))
        with pytest.raises(ValueError, match="n = 3"):
            dual_curvature_via_boundary(sq, StarBody.ball(2), 1.0)


class TestEntropy:
    """The entropy functional is solver._phi on a ProblemSpec, and
    entropy_gradient is the dense route to the solver's gradient."""

    P, Q = -1.0, 2.0

    def _spec(self, group, directions, grid, measure, p=P):
        return ProblemSpec.build(3, p, self.Q, group, BALL3, measure,
                                 directions, grid)

    def test_scale_invariance(self, tetra_group, tetra_directions, grid3,
                              invariant_body):
        spec = self._spec(tetra_group, tetra_directions, grid3,
                          lambda U: np.full(U.shape[0], 1.0 / 3.0))
        h = invariant_body.support
        base = solver._phi(spec, h)[0]
        for lam in (0.5, 2.0, 10.0):
            assert abs(solver._phi(spec, lam * h)[0] - base) <= 1e-10

    def test_ball_closed_form(self, tetra_group, tetra_directions, grid3):
        """h = 1 on group-stable directions and uniform density c:
        (1/p) log(c n kappa) - (1/q) log kappa."""
        c = 0.4
        spec = self._spec(tetra_group, tetra_directions, grid3,
                          lambda U: np.full(U.shape[0], c))
        val = solver._phi(spec, np.ones(len(tetra_directions)))[0]
        expected = math.log(c * 3 * KAPPA3) / self.P - math.log(KAPPA3) / self.Q
        assert val == pytest.approx(expected, abs=5e-3)

    def test_finite_at_floor(self, tetra_group, tetra_directions, grid3_small):
        ones = np.ones(len(tetra_directions))
        spec = self._spec(tetra_group, tetra_directions, grid3_small, ones)
        h = ones.copy()
        h[:24] = 1e-6  # at the default floor
        assert math.isfinite(solver._phi(spec, h)[0])

    def test_degenerate_state_named(self, tetra_group, tetra_directions,
                                    grid3_small):
        """A mass term that underflows to 0 (h^p below the smallest double)
        is the named error of entropy_state, for the solver's value and the
        dense gradient alike."""
        spec = self._spec(tetra_group, tetra_directions, grid3_small,
                          np.ones(len(tetra_directions)), p=-3.0)
        body = ball_polytope(tetra_directions, radius=1e110)
        with pytest.raises(ValueError, match="degenerate entropy state"):
            solver._phi(spec, body.support)
        with pytest.raises(ValueError, match="degenerate entropy state"):
            entropy_gradient(body, spec.mu, BALL3, spec.p, self.Q, grid3_small)

    def test_gradient_matches_solver_state(self, tetra_group, tetra_directions,
                                           grid3):
        """entropy_gradient is the solver's log-gradient divided by h, bit
        for bit, on a bump spec at random invariant supports."""
        spec = self._spec(tetra_group, tetra_directions, grid3,
                          lambda U: 0.2 + np.maximum(U[:, 0], 0.0) ** 2)
        rng = np.random.default_rng(27)
        for _ in range(4):
            h = rng.uniform(0.8, 1.25, len(spec.orbit_partition))[spec.orbit_of]
            body = SupportPolytope(dim=3, normals=spec.directions, support=h)
            got = entropy_gradient(body, spec.mu, spec.q_body, spec.p, spec.q,
                                   spec.grid)
            assert got.tobytes() == (solver._state(spec, h)[1] / h).tobytes()

    def test_scale_direction_orthogonality(self, grid3, invariant_body,
                                           uniform_mu):
        grad = entropy_gradient(invariant_body, uniform_mu, BALL3, self.P,
                                self.Q, grid3)
        assert abs(float(grad @ invariant_body.support)) <= 1e-9

    def test_ball_gradient_components_flat(self, grid3):
        """Uniform data: per-facet log-gradient stays at quadrature scale."""
        dirs = fibonacci_sphere_nodes(642)
        body = ball_polytope(dirs)
        mu = MeasureSpec.from_density(lambda U: np.full(U.shape[0], 1 / 3), grid3,
                                      dirs)
        grad = entropy_gradient(body, mu, BALL3, self.P, self.Q, grid3)
        log_grad = grad * body.support
        assert np.max(np.abs(log_grad)) <= 5e-4  # ~ single-cell binning noise


class TestMeasureSpec:
    def test_total_mass(self, uniform_mu):
        assert stable_sum(uniform_mu.atoms) == pytest.approx(4 * math.pi / 3,
                                                      rel=1e-9)

    def test_nontrivial_enforced(self, tetra_directions):
        with pytest.raises(ValueError, match="non-trivial"):
            MeasureSpec.from_atoms(np.zeros(len(tetra_directions)),
                                   tetra_directions)

    def test_negative_density_rejected(self, grid3_small, tetra_directions):
        with pytest.raises(ValueError, match="nonnegative"):
            MeasureSpec.from_density(lambda U: U[:, 0], grid3_small,
                                     tetra_directions)

    def test_node_without_near_direction_rejected(self, grid3_small):
        """Directions in the upper cap only: a node near the south pole has
        no positive product, and no zero pad product is taken for its
        nearest direction."""
        dirs = fibonacci_sphere_nodes(50)
        with pytest.raises(ValueError, match="no direction within 90"):
            MeasureSpec.from_density(lambda U: np.ones(len(U)), grid3_small,
                                     dirs[dirs[:, 2] > 0.5])

    def test_symmetrized_density_atoms(self, tetra_group, tetra_directions,
                                       grid3_small):
        mu = MeasureSpec.from_density(
            symmetrize_density(tetra_group,
                               lambda U: 1.0 + np.maximum(U[:, 0], 0.0)),
            grid3_small, tetra_directions)
        assert stable_sum(mu.atoms) > 0
        # group-averaging preserves the integral; on a grid that is not
        # itself group-invariant the discrete totals agree to quadrature
        # accuracy only (the exact case lives on divisible uniform grids,
        # covered in the groups tests)
        raw = MeasureSpec.from_density(lambda U: 1.0 + np.maximum(U[:, 0], 0.0),
                                       grid3_small, tetra_directions)
        assert stable_sum(mu.atoms) == pytest.approx(stable_sum(raw.atoms),
                                                     rel=1e-4)


    @pytest.mark.parametrize("block_rows", [1, 7, 641, 1557, 3001, 20000])
    def test_atoms_do_not_depend_on_the_block(self, grid3, tetra_directions,
                                              block_rows, monkeypatch):
        """The nearest directions are found in row blocks of
        sphere.BLOCK_CELLS products and the atoms summed by one bincount in
        node order, so every block size gives the bits of one dense
        product. Limits of 1, 7, 641, 1557 (the default at 642 directions),
        3001 and 20000 rows of 642 products give blocks of 2, 6, 625, 1539,
        2858 and 10000 rows of 648 padded products; the last block is 2,
        1532 and 2852 rows at 7, 1557 and 3001."""
        def density(U):
            return 1.0 + 2.0 * U[:, 2] ** 2

        want = np.bincount(np.argmax(grid3.nodes @ tetra_directions.T, axis=1),
                           weights=grid3.weights * density(grid3.nodes),
                           minlength=len(tetra_directions))
        monkeypatch.setattr(sphere, "BLOCK_CELLS",
                            block_rows * len(tetra_directions))
        got = MeasureSpec.from_density(density, grid3, tetra_directions)
        assert got.atoms.tobytes() == want.tobytes()

    def test_block_constant_is_read_at_call_time(self, grid3,
                                                 tetra_directions,
                                                 monkeypatch):
        """A patched sphere.BLOCK_CELLS reaches from_density: the default
        1 MiB block peaks at about 1.3 MiB, and 8 times as many cells per
        block hold an 8 MiB block, so the heap peaks over 5 MiB higher."""
        def run():
            MeasureSpec.from_density(lambda U: np.ones(len(U)), grid3,
                                     tetra_directions)

        default = heap_peak_mib(run)
        monkeypatch.setattr(sphere, "BLOCK_CELLS", 8 * sphere.BLOCK_CELLS)
        assert heap_peak_mib(run) > default + 5.0


class TestAffineInvariance:
    G = staticmethod(lambda V: V[:, 0] ** 2)

    def test_identity_map_zero_gap(self, grid3_small):
        rng = np.random.default_rng(28)
        body = random_polytope(rng, 9)
        _, _, gap = affine_invariance_check(body, BALL3, 2.0, np.eye(3),
                                            self.G, grid3_small, grid3_small)
        assert gap == 0.0

    def test_rotation_total_mass(self, grid3):
        rng = np.random.default_rng(29)
        body = random_polytope(rng, 9)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0],
                        [0, 0, 1.0]])
        g_a = build_grid(3, 20000, "monte-carlo", seed=5)
        g_b = build_grid(3, 20000, "monte-carlo", seed=6)
        lhs, rhs, gap = affine_invariance_check(body, BALL3, 2.0, rot,
                                                lambda V: np.ones(len(V)),
                                                g_a, g_b)
        vol = dual_mixed_volume(body, BALL3, 2.0, grid3)
        assert lhs == pytest.approx(vol, rel=0.01)
        assert gap <= 0.01

    def test_planar_shear(self):
        # diag(2, 1/2) quadruples the integrand's dynamic range; the
        # two-grid Monte-Carlo standard error at 2e4 nodes is itself ~2%,
        # so this check runs on denser grids than the milder acceptance maps
        rng = np.random.default_rng(30)
        body = random_polytope(rng, 8, dim=2)
        phi = np.diag([2.0, 0.5])
        q_body = StarBody.ellipsoid([1.0, 1.4])
        g_a = build_grid(2, 160000, "monte-carlo", seed=7)
        g_b = build_grid(2, 160000, "monte-carlo", seed=8)
        _, _, gap = affine_invariance_check(body, q_body, 2.0, phi, self.G,
                                            g_a, g_b)
        assert gap <= 0.02

    def test_non_unimodular_rejected(self, grid3_small):
        rng = np.random.default_rng(31)
        body = random_polytope(rng, 8)
        with pytest.raises(ValueError, match="unimodular"):
            affine_invariance_check(body, BALL3, 2.0, 2.0 * np.eye(3), self.G,
                                    grid3_small, grid3_small)

    def test_ill_conditioned_rejected(self, grid3_small):
        rng = np.random.default_rng(32)
        body = random_polytope(rng, 8)
        phi = np.diag([1e4, 1e-4, 1.0])
        with pytest.raises(ValueError, match="ill-conditioned"):
            affine_invariance_check(body, BALL3, 2.0, phi, self.G,
                                    grid3_small, grid3_small)

    def test_transform_polytope_matches_radial_rule(self):
        rng = np.random.default_rng(33)
        body = random_polytope(rng, 9)
        phi = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.0, 0.0, 1.0]])
        moved = transform_polytope(body, phi)
        probe = fibonacci_sphere_nodes(50)
        rho_moved, _ = radial_profile(moved, probe)
        # rho_{phi K}(u) = rho_K(phi^-1 u) extended by homogeneity
        pre = probe @ np.linalg.inv(phi).T
        norms = np.linalg.norm(pre, axis=1)
        rho_pre, _ = radial_profile(body, pre / norms[:, None])
        assert np.allclose(rho_moved, rho_pre / norms, rtol=1e-10)

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dualminkowski import solver
from dualminkowski.bodies import StarBody, is_invariant, radial_profile
from dualminkowski.groups import (
    OrthogonalGroup,
    cyclic_rotation,
    enumerate_group,
    invariant_directions,
    simplex_symmetry,
    standard_group,
)
from dualminkowski.measures import MeasureSpec, entropy_value
from dualminkowski.solver import (
    ProblemSpec,
    SolverConfig,
    assemble_solution,
    euler_lagrange_check,
    minimize_entropy,
    reduce_to_orbits,
    solve_problem,
)
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes

P, Q_EXP = -1.0, 2.0
BALL3 = StarBody.ball(3)


@pytest.fixture(scope="module")
def small_setup(tetra_group):
    directions = invariant_directions(tetra_group, 162)
    grid = build_grid(3, 5000)
    return tetra_group, directions, grid


@pytest.fixture(scope="module")
def ball_spec(small_setup):
    group, directions, grid = small_setup
    return ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                             lambda U: np.full(U.shape[0], 1.0 / 3.0),
                             directions, grid, density_label="constant 1/3")


@pytest.fixture(scope="module")
def bump_spec(small_setup):
    group, directions, grid = small_setup
    density = lambda U: 0.2 + np.maximum(U[:, 0], 0.0) ** 2
    return ProblemSpec.build(3, P, Q_EXP, group, BALL3, density, directions,
                             grid, density_label="bump")


class TestProblemSpec:
    def test_hypotheses_recorded(self, ball_spec):
        assert ball_spec.s_exponent == pytest.approx(4.0 / 3.0)
        assert len(ball_spec.orbit_partition) >= 2

    def test_p_out_of_range_rejected(self, small_setup):
        group, directions, grid = small_setup
        with pytest.raises(ValueError, match="admissible range"):
            ProblemSpec.build(3, -5.0, 2.0, group, BALL3,
                              lambda U: np.ones(U.shape[0]), directions, grid)

    def test_fixed_point_group_rejected(self, small_setup):
        _, directions, grid = small_setup
        theta = 2 * math.pi / 3
        rot_z = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                          [math.sin(theta), math.cos(theta), 0.0],
                          [0.0, 0.0, 1.0]])
        axial = enumerate_group([rot_z])  # fixes the vertical axis
        mu = MeasureSpec.from_atoms(np.ones(len(directions)), directions)
        with pytest.raises(ValueError, match="fixed vector"):
            ProblemSpec(dim=3, p=P, q=Q_EXP, group=axial, q_body=BALL3, mu=mu,
                        directions=directions, grid=grid)

    def test_non_invariant_q_rejected(self, small_setup):
        group, directions, grid = small_setup
        skew = StarBody.ellipsoid([1.0, 1.0, 1.4])
        with pytest.raises(ValueError, match="not group-invariant"):
            ProblemSpec.build(3, P, Q_EXP, group, skew,
                              lambda U: np.ones(U.shape[0]), directions, grid)

    def test_unstable_directions_rejected(self, small_setup):
        group, _, grid = small_setup
        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((60, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        mu = MeasureSpec.from_atoms(np.ones(60), dirs)
        with pytest.raises(ValueError, match="not group-stable"):
            ProblemSpec(dim=3, p=P, q=Q_EXP, group=group, q_body=BALL3, mu=mu,
                        directions=dirs, grid=grid)

    def test_non_orbit_constant_atoms_rejected(self, small_setup):
        group, directions, grid = small_setup
        atoms = np.ones(len(directions))
        atoms[0] *= 1.5
        mu = MeasureSpec.from_atoms(atoms, directions)
        with pytest.raises(ValueError, match="orbit-constant"):
            ProblemSpec(dim=3, p=P, q=Q_EXP, group=group, q_body=BALL3, mu=mu,
                        directions=directions, grid=grid)

    def test_negation_group_accepted(self):
        """Origin symmetry is the classical special case and must work."""
        group = standard_group("negation", n=3)
        directions = invariant_directions(group, 100)
        grid = build_grid(3, 4000)
        spec = ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                                 lambda U: np.full(U.shape[0], 0.5),
                                 directions, grid)
        assert len(spec.orbit_partition) == 50


class TestOrbitReduction:
    def test_expand_collapse_shapes(self, ball_spec):
        red = reduce_to_orbits(ball_spec)
        values = np.linspace(1.0, 2.0, red.orbit_count)
        full = red.expand(values)
        assert full.shape == (len(ball_spec.directions),)
        for k, orbit in enumerate(red.partition):
            assert np.all(full[orbit] == values[k])

    def test_collapsed_gradient_matches_directional_derivative(self, ball_spec):
        red = reduce_to_orbits(ball_spec)
        rng = np.random.default_rng(1)
        values = rng.uniform(0.9, 1.2, red.orbit_count)
        h = red.expand(values)
        from dualminkowski.bodies import SupportPolytope
        from dualminkowski.measures import entropy_gradient

        body = SupportPolytope(dim=3, normals=ball_spec.directions, support=h)
        grad = entropy_gradient(body, ball_spec.mu, ball_spec.q_body, P, Q_EXP,
                                ball_spec.grid)
        collapsed = red.collapse(grad)
        # directional derivative along one orbit's indicator
        k = 3
        bump = np.zeros(red.orbit_count)
        bump[k] = 1.0
        d = 1e-6
        up = entropy_value(body.with_support(h + d * red.expand(bump)),
                           ball_spec.mu, ball_spec.q_body, P, Q_EXP,
                           ball_spec.grid)
        dn = entropy_value(body.with_support(h - d * red.expand(bump)),
                           ball_spec.mu, ball_spec.q_body, P, Q_EXP,
                           ball_spec.grid)
        fd = (up - dn) / (2 * d)
        assert fd == pytest.approx(collapsed[k], rel=1e-5, abs=1e-10)

    def test_orbit_constant_support_is_invariant(self, ball_spec, tetra_group):
        red = reduce_to_orbits(ball_spec)
        rng = np.random.default_rng(2)
        from dualminkowski.bodies import SupportPolytope

        h = red.expand(rng.uniform(0.8, 1.3, red.orbit_count))
        body = SupportPolytope(dim=3, normals=ball_spec.directions, support=h)
        ok, dev = is_invariant(body, tetra_group)
        assert ok and dev <= 1e-9


class TestMinimize:
    def test_ball_solution(self, ball_spec):
        body, report = minimize_entropy(ball_spec)
        assert report.converged
        vol_gap = abs(
            _dual_volume(body, ball_spec) - 1.0)
        assert vol_gap <= 1e-10
        rho, _ = radial_profile(body, ball_spec.grid.nodes)
        # at 162 directions the facet-cell covering angle alone contributes
        # ~7% radial spread; the tight 2% check runs at 642 directions in the
        # acceptance suite
        assert rho.max() / rho.min() - 1.0 <= 0.08

    def test_phi_monotone(self, ball_spec):
        _, report = minimize_entropy(ball_spec)
        diffs = np.diff(report.phi_trace)
        assert np.all(diffs <= 1e-14)

    def test_scale_invariance_along_run(self, ball_spec):
        _, report = minimize_entropy(ball_spec)
        assert report.scale_invariance_gap <= 1e-10
        assert report.euler_pairing_max <= 1e-9

    def test_restart_reaches_same_minimum(self, ball_spec):
        _, base_report = minimize_entropy(ball_spec)
        red = reduce_to_orbits(ball_spec)
        rng = np.random.default_rng(3)
        start = np.exp(rng.uniform(-0.25, 0.25, red.orbit_count))
        _, perturbed_report = minimize_entropy(ball_spec,
                                               initial_orbit_values=start)
        assert perturbed_report.phi_trace[-1] == pytest.approx(
            base_report.phi_trace[-1], abs=1e-6)

    def test_every_iterate_invariant(self, ball_spec, tetra_group):
        from dualminkowski.bodies import SupportPolytope

        _, report = minimize_entropy(ball_spec,
                                     config=SolverConfig(max_iters=40))
        red = reduce_to_orbits(ball_spec)
        for values in report.orbit_values_trace[::10]:
            body = SupportPolytope(dim=3, normals=ball_spec.directions,
                                   support=red.expand(values))
            ok, dev = is_invariant(body, tetra_group)
            assert ok, dev


class TestSolution:
    def test_ball_fixed_point(self, ball_spec):
        report = solve_problem(ball_spec)
        rho, _ = radial_profile(report.body, ball_spec.grid.nodes)
        assert np.sqrt(np.mean((rho - 1.0) ** 2)) <= 0.02
        assert report.residual <= 0.02

    def test_density_scaling_law(self, small_setup, ball_spec):
        group, directions, grid = small_setup
        doubled = ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                                    lambda U: np.full(U.shape[0], 2.0 / 3.0),
                                    directions, grid)
        base = solve_problem(ball_spec)
        big = solve_problem(doubled)
        rho_a, _ = radial_profile(base.body, grid.nodes)
        rho_b, _ = radial_profile(big.body, grid.nodes)
        expected = 2.0 ** (1.0 / (Q_EXP - P))
        assert rho_b.mean() / rho_a.mean() == pytest.approx(expected, rel=0.01)

    def test_euler_lagrange_gap_small_at_minimizer(self, ball_spec):
        body, report = minimize_entropy(ball_spec)
        lam = float(np.sum(body.support ** P * ball_spec.mu.atoms))
        gap = euler_lagrange_check(body, lam, ball_spec)
        assert gap <= 5e-3

    def test_euler_gap_decreases_along_run(self, bump_spec):
        from dualminkowski.bodies import SupportPolytope

        body, report = minimize_entropy(bump_spec)
        red = reduce_to_orbits(bump_spec)

        def gap_at(values):
            b = SupportPolytope(dim=3, normals=bump_spec.directions,
                                support=red.expand(values))
            lam = float(np.sum(b.support ** P * bump_spec.mu.atoms))
            return euler_lagrange_check(b, lam, bump_spec)

        first = gap_at(report.orbit_values_trace[0])
        last = gap_at(report.orbit_values_trace[-1])
        assert last < first

    def test_bump_problem_solves(self, bump_spec):
        report = solve_problem(bump_spec)
        assert report.converged
        assert report.residual <= 0.02
        # non-uniform data: the solution is genuinely non-spherical
        rho, _ = radial_profile(report.body, bump_spec.grid.nodes)
        assert rho.max() / rho.min() - 1.0 > 0.05

    def test_rescale_requires_unit_volume(self, ball_spec):
        body, report = minimize_entropy(ball_spec)
        bloated = body.with_support(1.5 * body.support)
        with pytest.raises(ValueError, match="unit dual volume"):
            assemble_solution(bloated, ball_spec, report)


def _dual_volume(body, spec):
    from dualminkowski.measures import dual_mixed_volume

    return dual_mixed_volume(body, spec.q_body, spec.q, spec.grid)


class _DenseKernel(solver._EntropyKernel):
    """Reference: the dense pass over every node-facet pair, which the
    pruned pass must reproduce bit for bit."""

    def _rho(self, h, want_idx, antipodal=False):
        self.passes += 1
        denom = -self.denom if antipodal else self.denom
        scaled = denom * (1.0 / h)[None, :]
        if want_idx:
            idx = np.argmax(scaled, axis=1)
            return 1.0 / scaled[np.arange(scaled.shape[0]), idx], idx
        return 1.0 / np.max(scaled, axis=1), None


def _kernel_spec(nodes, directions):
    """The fields _EntropyKernel reads, for node sets no ProblemSpec has."""
    nodes = nodes / np.linalg.norm(nodes, axis=1, keepdims=True)
    grid = SimpleNamespace(nodes=nodes,
                           weights=np.full(len(nodes), 4 * math.pi / len(nodes)))
    return SimpleNamespace(dim=3, p=P, q=Q_EXP, q_body=BALL3, grid=grid,
                           directions=directions,
                           mu=SimpleNamespace(atoms=np.ones(len(directions))))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_kernels_agree(pruned, dense, h):
    for antipodal in (False, True):
        got = pruned._rho(h, want_idx=True, antipodal=antipodal)
        want = dense._rho(h, want_idx=True, antipodal=antipodal)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        got = pruned._rho(h, want_idx=False, antipodal=antipodal)
        want = dense._rho(h, want_idx=False, antipodal=antipodal)
        assert _same_bits(got[0], want[0]) and got[1] is None
    for got, want in zip(pruned.state(h), dense.state(h)):
        assert _same_bits(got, want)
    assert pruned.phi(h) == dense.phi(h)
    assert pruned.diameter(h) == dense.diameter(h)


class TestPrunedKernel:
    def test_bit_equal_to_dense_across_spreads(self, bump_spec):
        pruned = solver._EntropyKernel(bump_spec)
        dense = _DenseKernel(bump_spec)
        rng = np.random.default_rng(5)
        m = len(bump_spec.directions)
        built = []
        # spreads min(h)/max(h) falling to 0.05 force rebuilds; the rising
        # tail is served by lists built for a lower ratio
        for spread in (1.0, 0.999, 0.97, 0.9, 0.6, 0.3, 0.05, 0.5, 0.99):
            h = 1.3 * np.exp(rng.uniform(math.log(spread), 0.0, m))
            h[:2] = 1.3 * spread, 1.3
            _assert_kernels_agree(pruned, dense, h)
            built.append(pruned._lists[False].ratio)
        assert built[6] <= 0.05 < built[5]
        assert built[-1] == built[6]
        assert pruned.passes == dense.passes

    def test_exact_ties_take_the_first_facet(self):
        axes = np.vstack([np.eye(3), -np.eye(3)])
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        dirs = np.vstack([axes, corners / math.sqrt(3.0)])
        lattice = np.array([v for v in itertools.product([-1.0, 0.0, 1.0],
                                                         repeat=3) if any(v)])
        spec = _kernel_spec(np.vstack([lattice, fibonacci_sphere_nodes(200)]),
                            dirs)
        pruned, dense = solver._EntropyKernel(spec), _DenseKernel(spec)
        h = np.full(len(dirs), 0.8)
        scaled = pruned.denom / h
        tied = np.sum(scaled == scaled.max(axis=1, keepdims=True), axis=1)
        assert np.count_nonzero(tied > 1) >= 12  # symmetric nodes tie exactly
        _assert_kernels_agree(pruned, dense, h)

    def test_degenerate_inputs_raise(self, bump_spec):
        kernel = solver._EntropyKernel(bump_spec)
        h = np.ones(len(bump_spec.directions))
        h[3] = 0.0
        with pytest.raises(ValueError, match="positive and finite"):
            kernel.dual_volume(h)
        h[3] = np.nan
        with pytest.raises(ValueError, match="positive and finite"):
            kernel.dual_volume(h)
        half = _kernel_spec(fibonacci_sphere_nodes(50), np.eye(3))
        with pytest.raises(ValueError, match="positively span"):
            solver._EntropyKernel(half).dual_volume(np.ones(3))

    def test_minimize_matches_dense_reference(self, bump_spec, monkeypatch):
        body, report = minimize_entropy(bump_spec)
        monkeypatch.setattr(solver, "_EntropyKernel", _DenseKernel)
        ref_body, ref = minimize_entropy(bump_spec)
        assert report.iterations == ref.iterations > 10
        assert report.phi_trace == ref.phi_trace
        assert report.grad_trace == ref.grad_trace
        assert report.diameter_trace == ref.diameter_trace
        assert _same_bits(body.support, ref_body.support)
        assert report.kernel_passes == ref.kernel_passes

    def test_kernel_pass_count(self, bump_spec, monkeypatch):
        calls = {"phi": 0, "diameter": 0}

        class Counting(solver._EntropyKernel):
            def phi(self, h):
                calls["phi"] += 1
                return super().phi(h)

            def diameter(self, h):
                calls["diameter"] += 1
                return super().diameter(h)

        monkeypatch.setattr(solver, "_EntropyKernel", Counting)
        _, report = minimize_entropy(bump_spec)
        # initial normalization, one state pass per iteration, one pass per
        # line-search trial and two per diameter sample; renormalization
        # reuses the accepted trial's volume and costs no pass
        assert report.kernel_passes == \
            1 + report.iterations + calls["phi"] + 2 * calls["diameter"]
        assert calls["diameter"] == 1 + math.ceil(report.iterations / 10)
        assert calls["phi"] >= report.iterations - 1
        assert report.candidate_rebuilds >= 2

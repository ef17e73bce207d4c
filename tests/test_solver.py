import itertools
import math
import re
import sys

import numpy as np
import pytest

from dualminkowski import bodies, solver, sphere
from dualminkowski.bodies import (
    RadialKernel,
    StarBody,
    SupportPolytope,
    is_invariant,
    radial_profile,
)
from dualminkowski.groups import (
    OrthogonalGroup,
    cyclic_rotation,
    enumerate_group,
    invariant_directions,
    orbits,
    simplex_symmetry,
    standard_group,
)
from dualminkowski.measures import (
    MeasureSpec,
    dual_curvature_measure,
)
from dualminkowski.runio import ConfigError, resolve_solver_config
from dualminkowski.solver import (
    ProblemSpec,
    SolverConfig,
    assemble_solution,
    euler_lagrange_check,
    minimize_entropy,
    orbit_sums,
    solve_problem,
)
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes, stable_sum

from conftest import (heap_peak_mib, reference_kernel_lists,
                      reference_radial_profile)

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
                             directions, grid)


def _bump(small_setup):
    """A fresh bump spec: its kernel's lists and counters start empty."""
    group, directions, grid = small_setup
    density = lambda U: 0.2 + np.maximum(U[:, 0], 0.0) ** 2
    return ProblemSpec.build(3, P, Q_EXP, group, BALL3, density, directions,
                             grid)


@pytest.fixture(scope="module")
def bump_spec(small_setup):
    return _bump(small_setup)


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

    @pytest.mark.parametrize("shift", [1e-7, 1e-5])
    def test_unstable_gap_is_reported(self, small_setup, tetra_group,
                                      tetra_directions, shift):
        """One flagship direction moved by shift: the error reports the
        largest image-to-direction distance of a k-d tree query, to 3
        digits."""
        from scipy.spatial import cKDTree

        dirs = tetra_directions.copy()
        u = dirs[100]
        t = np.cross(u, [0.0, 0.0, 1.0])
        dirs[100] = u + shift * t / np.linalg.norm(t)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        want = float(np.max(cKDTree(dirs).query(tetra_group.apply(dirs))[0]))
        mu = MeasureSpec.from_atoms(np.ones(len(dirs)), dirs)
        with pytest.raises(ValueError, match="not group-stable") as err:
            ProblemSpec(dim=3, p=P, q=Q_EXP, group=tetra_group, q_body=BALL3,
                        mu=mu, directions=dirs, grid=small_setup[2])
        got = float(re.search(r"\((.*)\)", str(err.value)).group(1))
        assert got == pytest.approx(want, rel=1e-3)

    def test_direct_spec_stores_orbit_means(self, small_setup):
        """A spec built directly from atoms that are not orbit-constant
        holds their orbit means, bit-equal to ProblemSpec.build's."""
        group, directions, grid = small_setup
        atoms = np.random.default_rng(4).uniform(0.5, 1.5, len(directions))
        mu = MeasureSpec.from_atoms(atoms, directions)
        spec = ProblemSpec(dim=3, p=P, q=Q_EXP, group=group, q_body=BALL3,
                           mu=mu, directions=directions, grid=grid)
        built = ProblemSpec.build(3, P, Q_EXP, group, BALL3, atoms, directions,
                                  grid)
        assert _same_bits(spec.mu.atoms, built.mu.atoms)
        for k, orbit in enumerate(spec.orbit_partition):
            assert np.all(spec.orbit_of[orbit] == k)
            assert np.all(spec.mu.atoms[orbit] == np.mean(atoms[orbit]))
        assert not np.array_equal(spec.mu.atoms, atoms)

    def test_orbits_run_once_per_build(self, small_setup, monkeypatch):
        group, directions, grid = small_setup
        calls = []

        def counted(*args):
            calls.append(1)
            return orbits(*args)

        monkeypatch.setattr(solver, "orbits", counted)
        ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                          lambda U: np.full(U.shape[0], 1.0 / 3.0),
                          directions, grid)
        assert len(calls) == 1

    def test_negation_group_accepted(self):
        """Origin symmetry is the classical special case and must work."""
        group = standard_group("negation", n=3)
        directions = invariant_directions(group, 100)
        grid = build_grid(3, 4000)
        spec = ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                                 lambda U: np.full(U.shape[0], 0.5),
                                 directions, grid)
        assert len(spec.orbit_partition) == 50


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.5),
        ("max_iters", True), ("step_growth", 0.0),
        ("step_growth", math.inf), ("shrink", 1.0), ("shrink", 1.5),
        ("shrink", 0.0), ("min_step", 0.0), ("min_step", -1e-14),
        ("gradient_tolerance", math.nan),
        ("gradient_tolerance", 0.0), ("slope_factor", 0.0),
        ("slope_factor", 1.0), ("stall_tolerance", -1.0),
        ("stall_tolerance", math.nan),
    ])
    def test_invalid_value_rejected(self, field, value):
        """A solver section with a bad value fails naming the field: a range
        error for the two settings, an unknown-field error for the
        line-search and stall values, which are solver constants."""
        if field in SolverConfig.__dataclass_fields__:
            with pytest.raises(ValueError, match=f"solver field '{field}'"):
                SolverConfig(**{field: value})
            match = f"solver field '{field}'"
        else:
            with pytest.raises(TypeError):
                SolverConfig(**{field: value})
            match = re.escape(f"unknown solver fields: ['{field}']")
        with pytest.raises(ConfigError, match=match):
            resolve_solver_config({field: value})

    def test_defaults_and_edges_accepted(self):
        SolverConfig()
        SolverConfig(max_iters=np.int64(1), gradient_tolerance=5e-324)

    @pytest.mark.parametrize("field", [
        "initial_step", "shrink", "slope_factor", "min_step", "step_growth",
        "stall_window", "stall_tolerance", "seed"])
    def test_removed_setting_rejected(self, field):
        """The line-search and stall values are solver constants and the
        seed is gone: a config that names one is a config error."""
        assert hasattr(solver, field.upper()) == (field != "seed")
        with pytest.raises(TypeError):
            SolverConfig(**{field: 1})
        with pytest.raises(ConfigError, match="unknown solver fields"):
            resolve_solver_config({field: 1})


class TestOrbitReduction:
    def test_expand_collapse_shapes(self, ball_spec):
        count = len(ball_spec.orbit_partition)
        values = np.linspace(1.0, 2.0, count)
        full = values[ball_spec.orbit_of]
        assert full.shape == (len(ball_spec.directions),)
        sizes = orbit_sums(ball_spec, np.ones(len(full)))
        assert sizes.shape == (count,)
        for k, orbit in enumerate(ball_spec.orbit_partition):
            assert np.all(full[orbit] == values[k])
            assert sizes[k] == len(orbit)

    @pytest.mark.parametrize("spoil", [None, math.inf, math.nan],
                             ids=["finite", "inf", "nan"])
    def test_orbit_sums_are_fsum_per_orbit(self, ball_spec, spoil):
        """Each orbit's sum is math.fsum of its values bit for bit, the
        value stable_sum is defined to give, here over entries spread across
        24 orders of magnitude; a non-finite entry spoils its own orbit's
        sum only."""
        rng = np.random.default_rng(5)
        values = rng.standard_normal(len(ball_spec.directions)) * \
            10.0 ** rng.integers(-12, 12, len(ball_spec.directions))
        if spoil is not None:
            values[ball_spec.orbit_partition[2][1]] = spoil
        want = np.array([math.fsum(values[o].tolist())
                         for o in ball_spec.orbit_partition])
        got = orbit_sums(ball_spec, values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.isfinite(got).sum() == len(got) - (spoil is not None)
        assert got.tobytes() == np.array(
            [stable_sum(values[o]) for o in ball_spec.orbit_partition]
        ).tobytes()

    def test_collapsed_gradient_matches_directional_derivative(self, ball_spec):
        count = len(ball_spec.orbit_partition)
        rng = np.random.default_rng(1)
        values = rng.uniform(0.9, 1.2, count)
        h = values[ball_spec.orbit_of]
        collapsed = orbit_sums(ball_spec, solver._state(ball_spec, h)[1] / h)
        # directional derivative along one orbit's indicator
        k = 3
        bump = np.zeros(count)
        bump[k] = 1.0
        d = 1e-6
        up = solver._phi(ball_spec, h + d * bump[ball_spec.orbit_of])[0]
        dn = solver._phi(ball_spec, h - d * bump[ball_spec.orbit_of])[0]
        fd = (up - dn) / (2 * d)
        assert fd == pytest.approx(collapsed[k], rel=1e-5, abs=1e-10)

    def test_orbit_constant_support_is_invariant(self, ball_spec, tetra_group):
        rng = np.random.default_rng(2)
        from dualminkowski.bodies import SupportPolytope

        values = rng.uniform(0.8, 1.3, len(ball_spec.orbit_partition))
        h = values[ball_spec.orbit_of]
        body = SupportPolytope(dim=3, normals=ball_spec.directions, support=h)
        ok, dev, _ = is_invariant(body, tetra_group)
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
        rng = np.random.default_rng(3)
        count = len(ball_spec.orbit_partition)
        start = np.exp(rng.uniform(-0.25, 0.25, count))
        _, perturbed_report = minimize_entropy(ball_spec,
                                               initial_orbit_values=start)
        assert perturbed_report.phi_trace[-1] == pytest.approx(
            base_report.phi_trace[-1], abs=1e-6)

    def test_every_iterate_invariant(self, ball_spec, tetra_group):
        from dualminkowski.bodies import SupportPolytope

        _, report = minimize_entropy(ball_spec,
                                     config=SolverConfig(max_iters=40))
        for values in report.orbit_values_trace[::10]:
            body = SupportPolytope(dim=3, normals=ball_spec.directions,
                                   support=values[ball_spec.orbit_of])
            ok, dev, _ = is_invariant(body, tetra_group)
            assert ok, dev


class TestQuasiNewton:
    def test_bfgs_update_keeps_secant_and_positive_definite(self):
        rng = np.random.default_rng(4)
        size = 28
        H = np.eye(size)
        for _ in range(40):
            s = rng.normal(size=size)
            y = s + 0.5 * rng.normal(size=size)
            if s @ y <= 0:
                y = -y
            H = solver._bfgs_update(H, s, y)
            assert np.array_equal(H, H.T)
            assert np.min(np.linalg.eigvalsh(H)) > 0
            np.testing.assert_allclose(H @ y, s, rtol=0, atol=1e-11 *
                                       np.max(np.abs(s)))

    def test_failed_curvature_pair_takes_steepest_descent(self, small_setup,
                                                          monkeypatch):
        """A pair with s.y <= 0 (here y = 0: iteration 2 sees iteration 1's
        gradient again) drops the BFGS estimate, and iteration 2's first
        trial is the steepest-descent step from the last such step."""
        spec = _bump(small_setup)
        reduce = solver.orbit_sums
        gradients, first_trials = [], {}

        def frozen(spec, values):
            gradients.append(reduce(spec, values))
            return gradients[1] if len(gradients) == 3 else gradients[-1]

        phi = solver._phi

        def trial(spec, h):
            first_trials.setdefault(len(gradients), h)
            return phi(spec, h)

        monkeypatch.setattr(solver, "orbit_sums", frozen)
        monkeypatch.setattr(solver, "_phi", trial)
        _, report = minimize_entropy(spec, SolverConfig(max_iters=4))
        assert report.quasi_newton_resets == 1
        g = gradients[1]
        step = min(solver.INITIAL_STEP,
                   solver.STEP_GROWTH * report.step_trace[0],
                   solver.MAX_THETA_STEP / np.max(np.abs(g)))
        theta = np.log(report.orbit_values_trace[2])
        np.testing.assert_allclose(first_trials[3],
                                   np.exp(theta - step * g)[spec.orbit_of],
                                   rtol=1e-12)
        # iteration 1 took the full quasi-Newton step
        assert report.step_trace[1] == 1.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_theta_cap_bounds_the_list_ratio(self, small_setup, seed):
        """From a start drawn log-uniformly in [0.2, 5], the solve stops as
        it does from the flat start, and the capped trials never make the
        kernel build its lists below ratio 0.01 (uncapped trials go to
        1.5e-6 at seed 1 and 1e-19 at seed 2)."""
        group, directions, grid = small_setup

        def fresh():
            return ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                                     lambda U: np.full(U.shape[0], 1.0 / 3.0),
                                     directions, grid)

        flat = minimize_entropy(fresh())[1]
        spec = fresh()
        start = np.exp(np.random.default_rng(seed).uniform(
            math.log(0.2), math.log(5.0), len(spec.orbit_partition)))
        _, report = minimize_entropy(spec, initial_orbit_values=start)
        assert report.convergence_reason == flat.convergence_reason
        assert spec.radial.lists[0] >= 0.01


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

        def gap_at(values):
            b = SupportPolytope(dim=3, normals=bump_spec.directions,
                                support=values[bump_spec.orbit_of])
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

    def test_report_gap_matches_euler_lagrange_check(self, bump_spec):
        body, report = minimize_entropy(bump_spec)
        lam = stable_sum(body.support ** P * bump_spec.mu.atoms)
        want = euler_lagrange_check(body, lam, bump_spec)
        report = assemble_solution(body, bump_spec, report)
        assert report.euler_lagrange_gap == pytest.approx(want, rel=1e-12)

    def test_rescale_requires_unit_volume(self, ball_spec):
        body, report = minimize_entropy(ball_spec)
        bloated = body.with_support(1.5 * body.support)
        with pytest.raises(ValueError, match="unit dual volume"):
            assemble_solution(bloated, ball_spec, report)


def _dual_volume(body, spec):
    from dualminkowski.measures import dual_mixed_volume

    return dual_mixed_volume(body, spec.q_body, spec.q, spec.grid)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_radial_profile(nodes, normals, h, kernels):
    """kernels[0] serves the nodes and kernels[1] their antipodes."""
    body = SupportPolytope(dim=3, normals=normals, support=h)
    for kernel, points in zip(kernels, (nodes, -nodes)):
        # small blocks: radial_profile's blocking must not change its bits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sphere, "BLOCK_CELLS", 37 * len(h))
            rho, idx = radial_profile(body, points)
        got = kernel.profile(h)
        assert _same_bits(got[0], rho) and _same_bits(got[1], idx)
        got = kernel.profile(h, want_idx=False)
        assert _same_bits(got[0], rho) and got[1] is None


class _ProfileKernel(RadialKernel):
    """Reference: radial_profile itself, on a body per call."""

    def profile(self, h, want_idx=True):
        self.passes += 1
        body = SupportPolytope(dim=self.normals.shape[1], normals=self.normals,
                               support=h, h_floor=float(np.min(h)))
        rho, idx = radial_profile(body, self.points)
        return rho, idx if want_idx else None


def _lattice_ties():
    """(nodes, normals): the axes and cube corners as normals, and nodes
    that include the 26 lattice directions, whose products tie exactly."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    dirs = np.vstack([axes, corners / math.sqrt(3.0)])
    lattice = np.array([v for v in itertools.product([-1.0, 0.0, 1.0],
                                                     repeat=3) if any(v)])
    nodes = np.vstack([lattice, fibonacci_sphere_nodes(200)])
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return nodes, dirs


class TestPrunedKernel:
    def test_bit_equal_to_dense_across_spreads(self, bump_spec):
        nodes, dirs = bump_spec.grid.nodes, bump_spec.directions
        kernels = RadialKernel(nodes, dirs), RadialKernel(-nodes, dirs)
        rng = np.random.default_rng(5)
        m = len(dirs)
        built, widths, full = [], [], []
        # spreads min(h)/max(h) falling to 0.05 force rebuilds; the rising
        # tail is served by lists built for a lower ratio
        for spread in (1.0, 0.999, 0.97, 0.9, 0.6, 0.3, 0.05, 0.5, 0.99):
            h = 1.3 * np.exp(rng.uniform(math.log(spread), 0.0, m))
            h[:2] = 1.3 * spread, 1.3
            cells = kernels[0].cells
            _assert_matches_radial_profile(nodes, dirs, h, kernels)
            built.append(kernels[0].lists[0])
            # rows read per pass, two passes per spread
            widths.append((kernels[0].cells - cells) // (2 * len(nodes)))
            full.append(kernels[0].lists[1].shape[0])
            body = SupportPolytope(dim=3, normals=dirs, support=h)
            atoms = solver._curvature_atoms(bump_spec, h)[0]
            want = dual_curvature_measure(body, bump_spec.q_body, Q_EXP,
                                          bump_spec.grid)
            assert _same_bits(atoms, want)
            assert solver._dual_volume(bump_spec, h) == \
                _dual_volume(body, bump_spec)
        assert built[6] <= 0.05 < built[5]
        assert built[-1] == built[6]
        # the read prefix follows the spread, not the width of the lists:
        # at constant h (spread 1) a pass computes under half the cells
        assert widths[:7] == sorted(widths[:7]) and widths[0] < widths[6]
        assert widths[8] < widths[7] < widths[6]
        assert widths[0] < full[0] / 2 and widths[8] < full[8] / 2
        assert [k.passes for k in kernels] == [2 * len(built)] * 2
        assert [k.rebuilds for k in kernels] == [5, 5]

    def test_exact_ties_take_the_first_facet(self):
        nodes, dirs = _lattice_ties()
        h = np.full(len(dirs), 0.8)
        prods = nodes @ dirs.T
        with np.errstate(divide="ignore"):
            ratios = np.where(prods > 0, h / prods, np.inf)
        tied = np.sum(ratios == ratios.min(axis=1, keepdims=True), axis=1)
        assert np.count_nonzero(tied > 1) >= 12  # symmetric nodes tie exactly
        _assert_matches_radial_profile(
            nodes, dirs, h, (RadialKernel(nodes, dirs), RadialKernel(-nodes, dirs)))

    def test_ties_at_the_prefix_boundary_are_all_read(self):
        """At r = 1 the prefix ends at each node's largest product: a node
        whose largest product is shared by two facets reads both."""
        nodes, dirs = _lattice_ties()
        kernel = RadialKernel(nodes, dirs)
        h = np.full(len(dirs), 0.8)
        body = SupportPolytope(dim=3, normals=dirs, support=h)
        rho, idx = radial_profile(body, nodes)
        got = kernel.profile(h)
        assert _same_bits(got[0], rho) and _same_bits(got[1], idx)
        prods = nodes @ dirs.T
        at_top = prods == prods.max(axis=1, keepdims=True)
        tied = np.flatnonzero(np.sum(at_top, axis=1) > 1)
        assert len(tied) >= 12  # the (±1, ±1, 0) lattice nodes
        width = kernel.cells // len(nodes)
        assert width == 2 < kernel.lists[1].shape[0]
        read = kernel.lists[1][:width]
        for node in tied:
            assert set(np.flatnonzero(at_top[node])) == set(read[:, node])

    def test_products_below_tolerance_are_skipped(self):
        # facet 1 meets the node (1, 0, 0) at a product of 5e-15: below
        # radial_profile's 1e-14 tolerance, although its tiny support number
        # would win the division and clears the pruning bound of this spread
        tilted = np.array([5e-15, 0.0, 1.0]) / math.hypot(5e-15, 1.0)
        dirs = np.vstack([[1.0, 0.0, 0.0], tilted, -np.eye(3), [0.0, 1.0, 0.0]])
        h = np.array([1.0, 1e-16, 1.0, 1.0, 1.0, 1.0])
        nodes = np.vstack([np.eye(3), fibonacci_sphere_nodes(100)])
        body = SupportPolytope(dim=3, normals=dirs, support=h, h_floor=1e-16)
        rho, idx = radial_profile(body, nodes)
        got = RadialKernel(nodes, dirs).profile(h)
        assert idx[0] == 0 and rho[0] == 1.0
        assert _same_bits(got[0], rho) and _same_bits(got[1], idx)

    def test_degenerate_inputs_raise(self, bump_spec):
        kernel = RadialKernel(bump_spec.grid.nodes, bump_spec.directions)
        h = np.ones(len(bump_spec.directions))
        for bad in (0.0, -1.0, np.nan, np.inf):
            h[3] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                kernel.profile(h)
        with pytest.raises(ValueError, match="positive and finite"):
            kernel.profile(-np.ones(len(h)))
        half = RadialKernel(fibonacci_sphere_nodes(50), np.eye(3))
        with pytest.raises(ValueError, match="positively span"):
            half.profile(np.ones(3))
        # a product at or below radial_profile's denominator tolerance does
        # not count
        tiny = RadialKernel(np.array([[1e-15, 1.0, 0.0]]), np.eye(3)[:1])
        with pytest.raises(ValueError, match="positively span"):
            tiny.profile(np.ones(1))

    def test_degenerate_entropy_state_named(self, small_setup):
        """A mass term that underflows to 0 (h^p below the smallest double)
        is the named error of measures.entropy_state in both the line-search
        and the gradient evaluation, not a bare math domain error."""
        group, directions, grid = small_setup
        spec = ProblemSpec.build(3, -3.0, Q_EXP, group, BALL3,
                                 lambda U: np.full(U.shape[0], 1.0 / 3.0),
                                 directions, grid)
        h = np.full(len(directions), 1e110)
        for evaluate in (solver._phi, solver._state):
            with pytest.raises(ValueError, match="degenerate entropy state"):
                evaluate(spec, h)

    def test_minimize_matches_dense_reference(self, small_setup, monkeypatch):
        spec = _bump(small_setup)
        body, report = minimize_entropy(spec)
        # the reference spec's one kernel is radial_profile itself
        monkeypatch.setattr(solver, "RadialKernel", _ProfileKernel)
        ref_spec = _bump(small_setup)
        assert isinstance(ref_spec.radial, _ProfileKernel)
        ref_body, ref = minimize_entropy(ref_spec)
        assert report.iterations == ref.iterations > 10
        assert report.phi_trace == ref.phi_trace
        assert report.grad_trace == ref.grad_trace
        assert report.circumradius_trace == ref.circumradius_trace
        assert _same_bits(body.support, ref_body.support)
        assert spec.radial.passes == ref_spec.radial.passes

    def test_kernel_pass_count(self, small_setup, monkeypatch):
        spec = _bump(small_setup)
        phi = solver._phi
        trials = []

        def counting(*args):
            trials.append(args)
            return phi(*args)

        monkeypatch.setattr(solver, "_phi", counting)
        body, report = minimize_entropy(spec)
        # initial normalization, one state pass per iteration and one pass
        # per line-search trial; renormalization reuses the accepted
        # trial's volume and costs no pass
        assert report.line_search_passes == len(trials)
        assert spec.radial.passes == 1 + report.iterations + len(trials)
        assert len(trials) >= report.iterations - 1
        assert spec.radial.rebuilds == 1
        # assembly is one more pass of the same kernel
        assemble_solution(body, spec, report)
        assert spec.radial.passes == 2 + report.iterations + len(trials)
        assert spec.radial.rebuilds == 1


def _same_lists(got, want):
    return got[0] == want[0] and all(_same_bits(a, b)
                                     for a, b in zip(got[1:], want[1:]))


class TestBlockedPasses:
    """radial_profile and the kernel's list build hold one block of
    products at a time, with the dense forms' results bit for bit."""

    @pytest.mark.parametrize("block_rows", [None, 37, 2])
    @pytest.mark.parametrize("ratio", [0.95, 0.6, 0.3])
    def test_lists_match_dense_build(self, grid3, tetra_directions, ratio,
                                     block_rows, monkeypatch):
        if block_rows is not None:
            # 36-row blocks of 648 padded products, where 20000 nodes leave
            # a last block of 20 rows; or 10000 blocks of two rows, the
            # smallest that product_blocks cuts
            monkeypatch.setattr(sphere, "BLOCK_CELLS",
                                block_rows * len(tetra_directions))
        kernel = RadialKernel(grid3.nodes, tetra_directions)
        kernel._build(ratio)
        want = reference_kernel_lists(grid3.nodes, tetra_directions, ratio)
        assert _same_lists(kernel.lists, want)

    def test_no_positive_denominator_reported_by_global_index(self,
                                                              monkeypatch):
        # the normals cover only the positive octant; point 50, in the
        # eighth 7-row block (3 normals pad to 8 columns), has no positive
        # product
        normals = np.eye(3)
        points = np.abs(fibonacci_sphere_nodes(60)) + 0.1
        points[50] = [-1.0, 0.0, 0.0]
        monkeypatch.setattr(sphere, "BLOCK_CELLS", 7 * 8)
        with pytest.raises(ValueError, match=r"at point 50; normals do not "
                           "positively span"):
            RadialKernel(points, normals).profile(np.ones(3))
        with pytest.raises(ValueError, match=r"at point 50; "):
            reference_kernel_lists(points, normals, 0.95)

    def _assert_profile_matches(self, body, points, block_rows=None):
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(sphere, "BLOCK_CELLS",
                           block_rows * body.facet_count)
            rho, idx = radial_profile(body, points)
            ref_rho, ref_idx = reference_radial_profile(body, points)
        assert _same_bits(rho, ref_rho) and _same_bits(idx, ref_idx)
        return rho, idx

    @pytest.mark.parametrize("block_rows", [None, 37])
    def test_profile_matches_where_form_on_lattice_ties(self, block_rows):
        nodes, dirs = _lattice_ties()
        rng = np.random.default_rng(8)
        for h in (np.full(len(dirs), 0.8), rng.uniform(0.5, 1.5, len(dirs))):
            body = SupportPolytope(dim=3, normals=dirs, support=h)
            # every node has negative products, and the antipodes too
            for points in (nodes, -nodes):
                self._assert_profile_matches(body, points, block_rows)

    def test_profile_matches_where_form_at_the_tolerance(self):
        # products 5e-15 and exactly 1e-14 at the node (1, 0, 0), both at or
        # below the tolerance, on facets whose tiny support numbers would
        # win the division
        tilts = [np.array([t, 0.0, math.sqrt(1.0 - t * t)])
                 for t in (5e-15, 1e-14)]
        dirs = np.vstack([[1.0, 0.0, 0.0], *tilts, -np.eye(3),
                          [0.0, 1.0, 0.0]])
        assert (np.array([1.0, 0.0, 0.0]) @ dirs[2]) == 1e-14
        h = np.array([1.0, 1e-16, 1e-16, 1.0, 1.0, 1.0, 1.0])
        nodes = np.vstack([np.eye(3), fibonacci_sphere_nodes(100)])
        body = SupportPolytope(dim=3, normals=dirs, support=h, h_floor=1e-16)
        rho, idx = self._assert_profile_matches(body, nodes)
        assert idx[0] == 0 and rho[0] == 1.0

    def test_profile_error_matches_where_form(self):
        # the normals span, but at (0, 0, -1) the one positive product is
        # 5e-15, below the tolerance
        dirs = np.vstack([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                          [0.0, 0.0, 1.0], [0.0, 1.0, -5e-15]])
        body = SupportPolytope(dim=3, normals=dirs, support=np.ones(5))
        points = np.vstack([fibonacci_sphere_nodes(40), [[0.0, 0.0, -1.0]]])
        errors = []
        for profile in (radial_profile, reference_radial_profile):
            with pytest.raises(ValueError,
                               match=r"no positive denominator at direction "
                               r"\[ ?0\. +0\. +-1\.\]") as info:
                profile(body, points)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_heap_peaks_at_flagship_size(self, grid3, tetra_directions):
        """One 2^17-cell block is 1 MiB: the list build peaks at about
        16.9 MiB (each block's lists, then the finished lists),
        radial_profile at about 1.6 MiB and from_density at about 1.3 MiB.
        At 1e6 cells (7.6 MiB blocks) they peaked at 18.6, 9.0 and 7.9 MiB,
        at 4e6 cells the first two at 40.8 and 34.8 MiB, and the dense
        forms held the whole 20000 x 642 product (98 MiB) and copies of
        it."""
        kernel = RadialKernel(grid3.nodes, tetra_directions)
        assert heap_peak_mib(lambda: kernel._build(0.95)) <= 20.0
        h = np.exp(np.random.default_rng(3).uniform(-0.3, 0.3,
                                                    len(tetra_directions)))
        body = SupportPolytope(dim=3, normals=tetra_directions, support=h)
        assert heap_peak_mib(lambda: radial_profile(body, grid3.nodes)) \
            <= 3.0
        assert heap_peak_mib(lambda: MeasureSpec.from_density(
            lambda U: np.ones(len(U)), grid3, tetra_directions)) <= 2.0

    @pytest.mark.parametrize("ratio, bound", [(0.6, 100.0), (0.3, 170.0)])
    def test_low_ratio_build_frees_its_temporaries(self, grid3,
                                                   tetra_directions, ratio,
                                                   bound):
        """Each block's lists are sorted as the block is formed and freed
        once copied, and the padding is written in place. The finished
        lists are 2 x 22 MiB at ratio 0.6 and 2 x 37 MiB at 0.3, and the
        build peaks at about 86.6 and 146.1 MiB; the build that kept every
        block's (point, facet, product) triples until the end peaked at
        107.8 and 184.4 MiB, and one that held every list-sized temporary
        at once at 173 and 294 MiB."""
        kernel = RadialKernel(grid3.nodes, tetra_directions)
        assert heap_peak_mib(lambda: kernel._build(ratio)) <= bound


class TestOneKernel:
    """A solve runs every pass on the spec's one RadialKernel."""

    def test_one_kernel_and_no_dense_pass(self, small_setup, monkeypatch):
        built, dense = [], []

        class Counted(RadialKernel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        def spy(*args, **kwargs):
            dense.append(args)
            return radial_profile(*args, **kwargs)

        monkeypatch.setattr(solver, "RadialKernel", Counted)
        for name, module in list(sys.modules.items()):
            if name.startswith("dualminkowski") and \
                    getattr(module, "radial_profile", None) is radial_profile:
                monkeypatch.setattr(module, "radial_profile", spy)
        group, directions, grid = small_setup
        spec = ProblemSpec.build(3, P, Q_EXP, group, BALL3,
                                 lambda U: np.full(U.shape[0], 1.0 / 3.0),
                                 directions, grid)
        report = solve_problem(spec)
        assert report.iterations > 1
        assert len(built) == 1 and built[0][0] is spec.grid.nodes
        assert dense == []

    def test_circumradius_trace_is_max_rho(self, small_setup):
        spec = _bump(small_setup)
        _, report = minimize_entropy(spec)
        assert len(report.circumradius_trace) == report.iterations > 10
        for values, circum in zip(report.orbit_values_trace,
                                  report.circumradius_trace):
            body = SupportPolytope(dim=3, normals=spec.directions,
                                   support=values[spec.orbit_of])
            assert circum == float(np.max(radial_profile(body,
                                                         spec.grid.nodes)[0]))
        assert not report.circumradius_alarm

    def test_initial_values_must_be_positive_and_finite(self, ball_spec):
        count = len(ball_spec.orbit_partition)
        for bad in (0.0, -1.0, np.nan, np.inf):
            start = np.ones(count)
            start[1] = bad
            with pytest.raises(ValueError, match="positive and finite, one "
                                                 "per orbit"):
                minimize_entropy(ball_spec, initial_orbit_values=start)
        with pytest.raises(ValueError, match="one per orbit"):
            minimize_entropy(ball_spec, initial_orbit_values=np.ones(count + 1))

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with -s to see them live).

The flagship configuration is the analytically solvable fixed point: uniform
density 1/3 with the unit-ball weight body and tetrahedral symmetry, whose
exact solution is the unit ball. It is solved once at the full resolution
(642 directions / 20000 nodes) and shared by the criteria that probe it.
"""

import math
import time

import numpy as np
import pytest

from dualminkowski.bodies import (
    StarBody,
    SupportPolytope,
    geometry_stats,
    is_invariant,
    radial_profile,
    shifted_ball_polytope,
)
from dualminkowski.bounds import (
    BoxSpec,
    admissible_exponent_s,
    bs_dual_product,
    q_star,
    santalo_product,
    verify_box,
)
from dualminkowski.constructions import (
    dirichlet_voronoi_cone,
    fundamental_domain_check,
    orbit_intersection_body,
)
from dualminkowski.groups import standard_group
from dualminkowski.measures import (
    MeasureSpec,
    affine_invariance_check,
    dual_curvature_measure,
    dual_curvature_via_boundary,
)
from dualminkowski.solver import (
    ProblemSpec,
    SolverConfig,
    _phi,
    _state,
    minimize_entropy,
    orbit_sums,
    solve_problem,
)
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes, \
    unit_ball_volume

from conftest import (assert_bound_covers_probe, random_centered_polytope,
                      random_polytope)

BALL3 = StarBody.ball(3)
P_EXP, Q_EXP = -1.0, 2.0
DENSITY_C = 1.0 / 3.0


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def flagship(tetra_group, tetra_directions, grid3):
    spec = ProblemSpec.build(3, P_EXP, Q_EXP, tetra_group, BALL3,
                             lambda U: np.full(U.shape[0], DENSITY_C),
                             tetra_directions, grid3)
    t0 = time.perf_counter()
    solution = solve_problem(spec)
    wall = time.perf_counter() - t0
    return spec, solution, wall


def test_criterion_1_ball_fixed_point(flagship):
    """Exact solution is the unit ball: r = (n c)^{1/(q-p)} = 1."""
    spec, solution, wall = flagship
    rho, _ = radial_profile(solution.body, spec.grid.nodes)
    rms = float(np.sqrt(np.mean((rho - 1.0) ** 2)))
    passed = rms <= 0.02 and solution.residual <= 0.02 and wall <= 120.0
    report(1, passed,
           f"rms radial error {rms:.4f} (<=0.02), orbit residual "
           f"{solution.residual:.2e} (<=0.02), solve wall {wall:.1f}s (<=120)")


def test_criterion_2_density_scaling_law(flagship, tetra_group,
                                         tetra_directions, grid3):
    spec, solution, _ = flagship
    doubled = ProblemSpec.build(3, P_EXP, Q_EXP, tetra_group, BALL3,
                                lambda U: np.full(U.shape[0], 2 * DENSITY_C),
                                tetra_directions, grid3)
    big = solve_problem(doubled)
    rho_a, _ = radial_profile(solution.body, grid3.nodes)
    rho_b, _ = radial_profile(big.body, grid3.nodes)
    ratio = float(rho_b.mean() / rho_a.mean())
    expected = 2.0 ** (1.0 / (Q_EXP - P_EXP))
    gap = abs(ratio / expected - 1.0)
    report(2, gap <= 0.01,
           f"radius ratio {ratio:.6f} vs 2^(1/(q-p)) = {expected:.6f}, "
           f"relative gap {gap:.2e} (<=0.01)")


def test_criterion_3_gradient_correctness(tetra_group, tetra_directions, grid3):
    """Analytic gradient vs central differences on smooth points.

    Both sides are the solver's own arithmetic on the flagship spec: the
    analytic gradient is solver._state's log-gradient divided by h, the
    central differences are of solver._phi, and the facet assignment comes
    from the spec's RadialKernel. The objective is piecewise smooth in the
    support numbers (node-to-facet assignment changes on a measure-zero
    set), so a finite-difference probe is a valid derivative oracle only
    when both endpoints share the facet assignment; probes that straddle an
    assignment boundary shrink their step until they sit on a single smooth
    piece.
    """
    spec = ProblemSpec.build(3, P_EXP, Q_EXP, tetra_group, BALL3,
                             lambda U: np.full(U.shape[0], DENSITY_C),
                             tetra_directions, grid3)
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for _ in range(5):
        h = np.empty(len(tetra_directions))
        for orbit in spec.orbit_partition:
            h[orbit] = rng.uniform(0.8, 1.25)
        grad = _state(spec, h)[1] / h
        for i in rng.choice(len(h), 20, replace=False):
            d = 1e-5 * h[i]
            while d >= 1e-9 * h[i]:
                hp, hm = h.copy(), h.copy()
                hp[i] += d
                hm[i] -= d
                if np.array_equal(spec.radial.profile(hp)[1],
                                  spec.radial.profile(hm)[1]):
                    break
                d *= 0.25
            else:
                continue  # probe sits exactly on an assignment boundary
            fd = (_phi(spec, hp)[0] - _phi(spec, hm)[0]) / (2 * d)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), 1e-300))
            checked += 1
    report(3, worst <= 1e-4 and checked >= 95,
           f"max relative gap analytic vs central differences {worst:.2e} "
           f"(<=1e-4) over {checked} smooth-point probes "
           f"(5 bodies x 20 coordinates)")


def test_criterion_4_two_oracle_curvature(grid3):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        body = random_polytope(rng, int(rng.integers(6, 13)), grid=grid3)
        for q in (1.0, 2.0, 3.0):
            a = dual_curvature_measure(body, BALL3, q, grid3)
            b = dual_curvature_via_boundary(body, BALL3, q)
            active = b > 1e-12
            worst = max(worst, float(
                np.max(np.abs(a[active] - b[active]) / b[active])))
    report(4, worst <= 0.01,
           f"max per-facet gap spherical vs boundary oracle {worst:.4f} "
           f"(<=0.01) over 10 polytopes x q in {{1,2,3}}")


def test_criterion_5_box_brackets():
    rng = np.random.default_rng(103)
    total, failures = 0, 0
    for n in (2, 3, 4):
        for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
            for _ in range(100):
                axes = np.sort(np.exp(rng.uniform(math.log(0.3), math.log(30.0),
                                                  n)))
                rep = verify_box(BoxSpec(axes), q)
                total += 1
                failures += 0 if rep.passed else 1
    report(5, failures == 0,
           f"{total - failures}/{total} exact dual volumes inside the "
           f"bracket (constants recorded per branch)")


def test_criterion_6_santalo_sandwich(grid2, grid3):
    total, failures = 0, 0
    worst_hi = 0.0
    for n, grid in ((2, grid2), (3, grid3)):
        rng = np.random.default_rng(104 + n)
        kappa_sq = unit_ball_volume(n) ** 2
        for _ in range(100):
            body = random_centered_polytope(rng, n, grid)
            rep = santalo_product(body, grid)
            total += 1
            ok = rep["pass_floor"] and rep["product"] <= 1.02 * kappa_sq
            failures += 0 if ok else 1
            worst_hi = max(worst_hi, rep["product"] / kappa_sq)
    report(6, failures == 0,
           f"{total - failures}/{total} products in (kappa^2/4^n, "
           f"1.02 kappa^2]; max product/kappa^2 = {worst_hi:.4f}")


def test_criterion_7_dual_product_bounded(grid3, grid3_small):
    rng = np.random.default_rng(105)
    body = random_centered_polytope(rng, 3, grid3_small)
    q, r = 2.0, 4.0
    base = bs_dual_product(body, BALL3, BALL3, q, r, grid3_small)
    scale_gap = max(
        abs(bs_dual_product(body.with_support(lam * body.support), BALL3,
                            BALL3, q, r, grid3_small) - base) / base
        for lam in (0.5, 2.0))
    values = []
    normals = np.vstack([np.eye(3), -np.eye(3)])
    for k in range(4):  # four decades of box aspect ratio
        axes = np.array([1.0, 1.0, 10.0 ** k])
        box_body = SupportPolytope(dim=3, normals=normals,
                                   support=np.tile(axes, 2))
        values.append(bs_dual_product(box_body, BALL3, BALL3, q, r, grid3))
    theta_hat = max(max(values), 1.0 / min(values))
    report(7, scale_gap <= 1e-10 and min(values) > 0,
           f"scale-invariance gap {scale_gap:.2e} (<=1e-10); aspect sweep "
           f"product in [{min(values):.4f}, {max(values):.4f}], recorded "
           f"theta_hat = {theta_hat:.4f}")


def test_criterion_8_invariance_suite(flagship, tetra_group, tetra_directions,
                                      grid3_small):
    spec, solution, _ = flagship
    probe = build_grid(3, 800, seed=31)
    worst_dev = 0.0
    for values in solution.orbit_values_trace:
        body = SupportPolytope(dim=3, normals=tetra_directions,
                               support=values[spec.orbit_of])
        _, dev, _ = is_invariant(body, tetra_group, probe)
        worst_dev = max(worst_dev, dev)
    base = shifted_ball_polytope(fibonacci_sphere_nodes(160), 2.0,
                                 np.array([0.5, 0.0, 0.0]))
    for seed in (0, 1):
        _, cert = orbit_intersection_body(tetra_group, base, seed=seed,
                                          grid=probe)
        worst_dev = max(worst_dev, cert.invariance_deviation)
    stats = geometry_stats(solution.body, grid3_small)
    centroid_ok = np.linalg.norm(stats["centroid"]) <= \
        1e-3 * stats["circumradius"]
    passed = (worst_dev <= 1e-9 and centroid_ok
              and solution.scale_invariance_gap <= 1e-10
              and solution.euler_pairing_max <= 1e-9)
    report(8, passed,
           f"max invariance deviation {worst_dev:.2e} (<=1e-9) over "
           f"{len(solution.orbit_values_trace)} iterates + constructions; "
           f"centroid/circumradius "
           f"{np.linalg.norm(stats['centroid']) / stats['circumradius']:.2e} "
           f"(<=1e-3); scale-invariance gap "
           f"{solution.scale_invariance_gap:.2e} (<=1e-10); "
           f"<grad,h> max {solution.euler_pairing_max:.2e} (<=1e-9)")


def test_criterion_8_bound_covers_probe_on_iterates(flagship, tetra_group,
                                                    tetra_directions):
    """Criterion 8's deviations on the flagship iterates are the proven
    constraint-match bound, and each covers the dense probe's deviation
    (every ninth iterate and the last, on criterion 8's probe grid)."""
    spec, solution, _ = flagship
    probe = build_grid(3, 800, seed=31)
    trace = solution.orbit_values_trace
    for values in trace[::9] + trace[-1:]:
        body = SupportPolytope(dim=3, normals=tetra_directions,
                               support=values[spec.orbit_of])
        ok, dev, method = is_invariant(body, tetra_group, probe)
        assert ok and method == "constraint-match"
        assert_bound_covers_probe(dev, body, tetra_group, probe)


def test_criterion_9_construction_certificates(tetra_group):
    base = shifted_ball_polytope(fibonacci_sphere_nodes(160), 2.0,
                                 np.array([0.5, 0.0, 0.0]))
    cert_grid = build_grid(3, 800, seed=17)
    wins = 0
    for seed in range(100):
        _, cert = orbit_intersection_body(tetra_group, base, seed=seed,
                                          grid=cert_grid)
        wins += cert.non_origin_symmetric
    dv_ok = True
    for name, params, anchor in [("cyclic", {"order": 3}, [1.0, 0.29]),
                                 ("cyclic", {"order": 5}, [1.0, 0.29]),
                                 ("simplex-symmetry", {"m": 3},
                                  [1.0, 0.29, -0.37])]:
        group = standard_group(name, n=len(anchor), **params)
        z = np.asarray(anchor) / np.linalg.norm(anchor)
        cone = dirichlet_voronoi_cone(group, z)
        check = fundamental_domain_check(group, cone, 10000, seed=23)
        dv_ok &= check["all_covered"] and check["interiors_disjoint"]
    report(9, wins >= 95 and dv_ok,
           f"{wins}/100 seeds certified non-origin-symmetric (>=95); "
           f"fundamental-domain coverage on 10^4 points for three groups: "
           f"{'ok' if dv_ok else 'violated'}")


def test_criterion_10_exponent_arithmetic():
    worst = 0.0
    for q in (1.1, 1.5, 2.0, math.e, 3.0, 10.0):
        for n in (2, 3, 4):
            worst = max(worst, abs(q_star(q_star(q, n), n) - q))
    gate_ok = True
    try:
        admissible_exponent_s(-4.0, 2.0, 3)
        gate_ok = False
    except ValueError:
        pass
    s = admissible_exponent_s(-4.0 + 1e-6, 2.0, 3)
    gate_ok &= s > 1.0
    report(10, worst <= 1e-12 and gate_ok,
           f"max involution defect {worst:.2e} (<=1e-12); range gate rejects "
           f"p = -q* and accepts p = -q* + 1e-6 (s = {s:.4g})")


def test_criterion_11_affine_invariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    cases = 0
    for n in (2, 3):
        for k in range(5):
            body = random_polytope(rng, int(rng.integers(n + 4, n + 9)), dim=n)
            axes = rng.uniform(0.8, 1.3, n)
            q_body = StarBody.ellipsoid(axes)
            # random unimodular map of moderate conditioning
            diag = rng.uniform(0.6, 1.6, n)
            diag /= np.prod(diag) ** (1.0 / n)
            from scipy.stats import ortho_group

            rot = ortho_group.rvs(n, random_state=rng)
            if np.linalg.det(rot) < 0:
                rot[0] *= -1.0
            phi = rot @ np.diag(diag)
            a = rng.standard_normal(n)
            g = lambda V, a=a: (V @ a) ** 2 + 0.5
            grid_a = build_grid(n, 20000, "monte-carlo", seed=200 + cases)
            grid_b = build_grid(n, 20000, "monte-carlo", seed=300 + cases)
            _, _, gap = affine_invariance_check(body, q_body, 2.0, phi, g,
                                                grid_a, grid_b)
            worst = max(worst, gap)
            cases += 1
    report(11, worst <= 0.02,
           f"max relative gap {worst:.4f} (<=0.02) over {cases} random "
           f"(K, Q, map, test-function) tuples in n = 2, 3")


def test_criterion_12_grid_refinement(flagship, tetra_group, tetra_directions):
    """First-order refinement of the solved measure against the ideal atoms.

    At the ball fixed point the same-grid residual sits at the solver floor,
    so refinement is judged against reference atoms binned on a 1.28M-node
    grid: the gap is then pure node-to-direction binning error, which halving
    the covering angle (4x nodes) should cut by at least 1.5x. The solved
    measure is each solution's own atoms, from its assembly pass.
    """
    spec20, solution20, _ = flagship
    part = spec20.orbit_partition

    grid5 = build_grid(3, 5000)
    spec5 = ProblemSpec.build(3, P_EXP, Q_EXP, tetra_group, BALL3,
                              lambda U: np.full(U.shape[0], DENSITY_C),
                              tetra_directions, grid5)
    solution5 = solve_problem(spec5)

    grid_ref = build_grid(3, 1280000)
    mu_ref = MeasureSpec.from_density(lambda U: np.full(U.shape[0], DENSITY_C),
                                      grid_ref, tetra_directions)
    ref = mu_ref.atoms.copy()
    for orbit in part:
        ref[orbit] = np.mean(ref[orbit])
    ref_orbit = orbit_sums(spec20, ref)

    def residual(solution):
        got = orbit_sums(spec20, solution.atoms)
        return float(np.sum(np.abs(got - ref_orbit)) / np.sum(ref_orbit))

    res5 = residual(solution5)
    res20 = residual(solution20)
    ratio = res5 / res20
    report(12, ratio >= 1.5,
           f"measure residual vs reference atoms: {res5:.3e} at 5000 nodes "
           f"-> {res20:.3e} at 20000 nodes, reduction x{ratio:.2f} (>=1.5)")

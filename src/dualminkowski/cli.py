"""Command-line interface: solve, verify-bounds, construct, selftest, export.

Each run reads one JSON config, writes a fresh run directory under the
output root, and exits with a code that distinguishes the failure class:
0 success, 1 usage or internal error, 2 hypothesis violation, 3 solver
non-convergence, 4 bound violation found. Any other error raised after the
run directory exists leaves error.json there (see runio.write_error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGED = 3
EXIT_BOUND_VIOLATION = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualminkowski",
        description="Prescribed dual-curvature solver and estimate verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in [("solve", True), ("verify-bounds", True),
                               ("construct", True), ("export", True),
                               ("selftest", False)]:
        cmd = sub.add_parser(name)
        if needs_config:
            cmd.add_argument("config", help="path to the JSON run config")
        cmd.add_argument("--out", default="runs", help="output root directory")
    args = parser.parse_args(argv)
    args.run_dir = None  # set by _run_directory

    from .runio import ConfigError, HypothesisError, load_config, write_error

    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        config = load_config(args.config)
        handler = {
            "solve": _cmd_solve,
            "verify-bounds": _cmd_verify_bounds,
            "construct": _cmd_construct,
            "export": _cmd_export,
        }[args.command]
        return handler(config, args)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - surface anything with context
        print(f"error: {exc}", file=sys.stderr)
        if args.run_dir is not None:
            write_error(args.run_dir, args.command, config, exc)
        return EXIT_ERROR


def _run_directory(args, command: str) -> str:
    """A fresh run directory, kept on args for main's error report."""
    from .runio import new_run_directory

    args.run_dir = new_run_directory(args.out, command)
    return args.run_dir


def _cmd_solve(config: dict, args) -> int:
    from .runio import (resolve_problem, write_body_file, write_csv,
                        write_facet_measure_csv, write_manifest,
                        write_obj_mesh)
    from .solver import solve_problem

    started = time.time()
    spec, solver_cfg, extras = resolve_problem(config)
    export_mesh = extras.pop("export_mesh")
    run_dir = _run_directory(args, "solve")

    report = solve_problem(spec, solver_cfg)

    outputs = []
    body_path = f"{run_dir}/body.txt"
    write_body_file(body_path, report.body)
    outputs.append(body_path)
    csv_path = f"{run_dir}/convergence.csv"
    steps = report.step_trace + [""] * (report.iterations
                                        - len(report.step_trace))
    write_csv(csv_path,
              ["iteration", "phi", "grad_norm", "circumradius", "step"],
              [[i, *row] for i, row in enumerate(zip(report.phi_trace,
               report.grad_trace, report.circumradius_trace, steps))])
    outputs.append(csv_path)
    atoms_path = f"{run_dir}/measure_atoms.csv"
    write_facet_measure_csv(atoms_path, report.body, report.atoms)
    outputs.append(atoms_path)
    if spec.dim == 3 and export_mesh:
        mesh_path = f"{run_dir}/body.obj"
        write_obj_mesh(mesh_path, report.body)
        outputs.append(mesh_path)

    outcome = {
        "converged": report.converged,
        "convergence_reason": report.convergence_reason,
        "iterations": report.iterations,
        "kernel_passes": spec.radial.passes,
        "line_search_passes": report.line_search_passes,
        "quasi_newton_resets": report.quasi_newton_resets,
        "candidate_rebuilds": spec.radial.rebuilds,
        "kernel_cells": spec.radial.cells,
        "phi_final": report.phi_trace[-1] if report.phi_trace else None,
        "gradient_final": report.grad_trace[-1] if report.grad_trace else None,
        "gradient_floor": report.gradient_floor,
        "lambda": report.lam,
        "residual_orbit_l1": report.residual,
        "euler_lagrange_gap": report.euler_lagrange_gap,
        "scale_invariance_gap": report.scale_invariance_gap,
        "floor_hit": report.floor_hit,
        "circumradius_alarm": report.circumradius_alarm,
        **extras,
    }
    write_manifest(run_dir, "solve", config, outcome, outputs, started)
    print(f"run directory: {run_dir}")
    print(f"converged: {report.converged} ({report.convergence_reason}) "
          f"in {report.iterations} iterations")
    print(f"lambda: {report.lam:.9g}  residual: {report.residual:.3e}")
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _cmd_verify_bounds(config: dict, args) -> int:
    from .bounds import BoxSpec, verify_box
    from .runio import resolve_sweep, write_csv, write_manifest

    started = time.time()
    dims, q_values, per_case, (lo, hi), seed = resolve_sweep(config)
    run_dir = _run_directory(args, "verify-bounds")

    rows, failures, total = [], 0, 0
    branch_counts: dict[str, int] = {}
    worst_margin = math.inf
    for n in dims:
        rng = np.random.default_rng(seed + n)
        for q in q_values:
            for _ in range(per_case):
                axes = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi),
                                                  n)))
                rep = verify_box(BoxSpec(axes), q)
                total += 1
                failures += 0 if rep.passed else 1
                branch_counts[rep.branch] = branch_counts.get(rep.branch, 0) + 1
                worst_margin = min(worst_margin,
                                   math.log(rep.observed / rep.lower),
                                   math.log(rep.upper / rep.observed))
                rows.append([n, q, rep.branch,
                             ";".join(f"{a:.6g}" for a in axes),
                             rep.lower, rep.observed, rep.upper,
                             int(rep.passed)])
    csv_path = f"{run_dir}/bounds.csv"
    write_csv(csv_path, ["n", "q", "branch", "half_axes", "lower", "observed",
                         "upper", "pass"], rows)
    outcome = {"cases": total, "failures": failures,
               "pass_rate": (total - failures) / total,
               "branch_counts": branch_counts,
               "worst_margin": worst_margin}
    write_manifest(run_dir, "verify-bounds", config, outcome, [csv_path], started)
    print(f"run directory: {run_dir}")
    print(f"bracket checks: {total - failures}/{total} passed")
    return EXIT_OK if failures == 0 else EXIT_BOUND_VIOLATION


def _cmd_construct(config: dict, args) -> int:
    from .constructions import (fundamental_domain_check,
                                orbit_intersection_body,
                                orbit_intersection_body_circum)
    from .runio import (resolve_construct, write_body_file, write_json,
                        write_manifest)

    started = time.time()
    kind, group, seed, inputs = resolve_construct(config)
    run_dir = _run_directory(args, "construct")
    outputs = []

    if kind == "dirichlet-voronoi":
        cone, samples = inputs
        check = fundamental_domain_check(group, cone, samples, seed=seed)
        cone_path = f"{run_dir}/cone.json"
        write_json(cone_path, {"anchor": cone.anchor, "normals": cone.normals,
                               **check})
        outputs.append(cone_path)
        outcome = dict(check)
    else:
        base, grid = inputs
        if kind == "orbit-intersection-min":
            body, cert = orbit_intersection_body(group, base, seed=seed, grid=grid)
            checks = {}
        else:
            body, cert, checks = orbit_intersection_body_circum(
                group, base, seed=seed, grid=grid)
        body_path = f"{run_dir}/body.txt"
        write_body_file(body_path, body)
        outputs.append(body_path)
        cert_path = f"{run_dir}/certificate.json"
        write_json(cert_path, {
            "max_gap": cert.max_gap,
            "witness": cert.witness,
            "invariance_deviation": cert.invariance_deviation,
            "invariance_method": cert.invariance_method,
            "non_origin_symmetric": cert.non_origin_symmetric,
            **checks,
        })
        outputs.append(cert_path)
        outcome = {"facets": body.facet_count,
                   "active_constraints": cert.active_constraints,
                   "non_origin_symmetric": cert.non_origin_symmetric,
                   "max_gap": cert.max_gap,
                   "invariance_deviation": cert.invariance_deviation,
                   "invariance_method": cert.invariance_method}

    write_manifest(run_dir, "construct", config, outcome, outputs, started)
    print(f"run directory: {run_dir}")
    print(json.dumps(outcome, indent=2, default=str))
    return EXIT_OK


def _cmd_export(config: dict, args) -> int:
    from .bodies import prune
    from .runio import (resolve_export, write_body_file, write_manifest,
                        write_obj_mesh)

    started = time.time()
    body, pruned, mesh = resolve_export(config)
    run_dir = _run_directory(args, "export")
    outputs = []
    if pruned:
        body = prune(body)
    body_path = f"{run_dir}/body.txt"
    write_body_file(body_path, body)
    outputs.append(body_path)
    if mesh:
        mesh_path = f"{run_dir}/body.obj"
        write_obj_mesh(mesh_path, body)
        outputs.append(mesh_path)
    outcome = {"facets": body.facet_count, "pruned": pruned}
    write_manifest(run_dir, "export", config, outcome, outputs, started)
    print(f"run directory: {run_dir}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    """Quick smoke battery of closed-form identities (seconds, not minutes)."""
    import math as m

    from .bodies import StarBody, cube_polytope, polar_body, radial_eval
    from .bounds import q_star
    from .groups import certify, cyclic_rotation, simplex_symmetry
    from .measures import dual_mixed_volume
    from .sphere import build_grid, integrate, sphere_area, unit_ball_volume

    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"  {'pass' if ok else 'FAIL'}  {name}")

    grid = build_grid(3, 4000)
    check("grid total weight = 4*pi",
          abs(grid.total_weight() - 4 * m.pi) < 1e-9)
    check("odd integrand vanishes",
          abs(integrate(grid, lambda u: u[:, 0])) < 1e-2)
    check("surface area alpha_4 = 2*pi^2",
          abs(sphere_area(4) - 2 * m.pi ** 2) < 1e-12)
    cube = cube_polytope(3)
    rho, facet = radial_eval(cube, np.array([1.0, 0, 0]))
    check("cube radial along axis", abs(rho - 1) < 1e-12 and facet == 0)
    corner = np.ones(3) / m.sqrt(3)
    check("cube radial at corner", abs(radial_eval(cube, corner)[0] - m.sqrt(3)) < 1e-9)
    u = np.array([0.3, -0.5, 0.81]); u /= np.linalg.norm(u)
    check("polar radial of cube = 1/l1-norm",
          abs(radial_eval(polar_body(cube), u)[0] - 1 / np.abs(u).sum()) < 1e-9)
    check("cyclic(5) certificate", certify(cyclic_rotation(5)).averaging_norm < 1e-10)
    check("simplex symmetry order 24", simplex_symmetry(3).order == 24)
    check("q* fixed point at n", q_star(3.0, 3) == 3.0)
    ball_vol = dual_mixed_volume(cube, StarBody.ball(3), 3.0, grid)
    check("cube volume via dual volume", abs(ball_vol - 8.0) < 0.08)
    failed = [name for name, ok in checks if not ok]
    print(f"selftest: {len(checks) - len(failed)}/{len(checks)} passed")
    return EXIT_OK if not failed else EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

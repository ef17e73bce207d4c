"""The benchmark's own checks must count known-bad outputs as failures.

Run with `PYTHONPATH=src python -m pytest perfbench/test_checks.py`.
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import configs  # noqa: E402
from spans import Span, Tracer  # noqa: E402

from dualminkowski.bodies import StarBody, ball_polytope  # noqa: E402
from dualminkowski.measures import MeasureSpec  # noqa: E402
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes  # noqa: E402

GOOD_OUTCOME = {"converged": True, "convergence_reason": "quadrature-floor",
                "residual_orbit_l1": 5.77e-4, "scale_invariance_gap": 4e-16}


@pytest.fixture(scope="module")
def ball():
    return ball_polytope(fibonacci_sphere_nodes(642))


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 5000)


def test_flagship_accepts_ball_and_rejects_scaled_ball(ball, grid):
    rms = checks.radial_rms_error(ball, grid, 1.0)
    assert checks.flagship_failures(0, GOOD_OUTCOME, rms, 0.0) == []
    scaled = ball.with_support(1.1 * ball.support)
    bad = checks.radial_rms_error(scaled, grid, 1.0)
    assert bad > checks.RMS_GATE
    problems = checks.flagship_failures(0, GOOD_OUTCOME, bad, 0.0)
    assert len(problems) == 1 and "radial rms" in problems[0]


@pytest.mark.parametrize("change", [
    {"converged": False},
    {"residual_orbit_l1": 0.05},
    {"scale_invariance_gap": 1e-8},
])
def test_flagship_rejects_bad_outcome(change):
    assert checks.flagship_failures(0, {**GOOD_OUTCOME, **change}, 0.0, 0.0)


def test_flagship_rejects_exit_code_and_pairing():
    assert checks.flagship_failures(3, GOOD_OUTCOME, 0.0, 0.0)
    assert checks.flagship_failures(0, GOOD_OUTCOME, 0.0, 1e-6)


def test_support_pairing_vanishes(ball, grid):
    atoms = np.full(642, 4.0 * math.pi / 642)
    spec = SimpleNamespace(mu=MeasureSpec.from_atoms(atoms, ball.normals),
                           q_body=StarBody.ball(3), p=-1.0, q=2.0, grid=grid)
    body = ball.with_support(1.0 + 0.1 * ball.normals[:, 0] ** 2)
    assert checks.support_pairing(body, spec) <= checks.PAIRING_GATE


def test_bump_needs_gradient_tolerance_stop():
    good = {"convergence_reason": "gradient-tolerance", "residual_orbit_l1": 2e-3}
    assert checks.bump_failures(0, good) == []
    assert checks.bump_failures(0, {**good, "convergence_reason": "quadrature-floor"})
    assert checks.bump_failures(0, {**good, "residual_orbit_l1": 0.03})


def test_construct_checks():
    assert checks.body_failures(0, {"invariance_deviation": 2e-15}) == []
    assert checks.body_failures(0, {"invariance_deviation": 1e-6})
    assert checks.body_failures(1, {"invariance_deviation": 0.0})
    assert checks.certified_share_failures(19, 20) == []
    assert checks.certified_share_failures(9, 10)
    cone = {"sample_count": 100, "covered": 100, "all_covered": True,
            "interiors_disjoint": True, "max_interior_hits": 1}
    assert checks.cone_failures(0, cone) == []
    assert checks.cone_failures(0, {**cone, "covered": 99, "all_covered": False})
    assert checks.cone_failures(0, {**cone, "interiors_disjoint": False,
                                    "max_interior_hits": 2})


def test_bracket_rejects_observation_outside():
    row = {"n": "3", "q": "2", "half_axes": "1;2;3", "lower": "1.0",
           "observed": "1.5", "upper": "2.0", "pass": "1"}
    assert checks.bracket_failures(0, [row]) == []
    assert checks.bracket_failures(0, [{**row, "observed": "2.0000001"}])
    assert checks.bracket_failures(4, [row])
    assert checks.bracket_failures(0, [])


def test_seed_zero_configs_are_canonical():
    flagship = configs.solve_flagship(0)
    assert flagship["measure"] == {"density": "constant", "value": 1.0 / 3.0}
    assert configs.exact_radius(flagship) == pytest.approx(1.0, abs=1e-15)
    bump = configs.solve_bump(0)["measure"]
    assert bump["axis"] == [0.3, 0.2, 0.93] and bump["base"] == 1.0
    assert configs.construct_body(0, 5)["seed"] == 5
    assert configs.verify_bounds(0, 0)["seed"] == 0
    assert configs.solve_bump(3) == configs.solve_bump(3)
    assert configs.solve_flagship(1) != flagship


def test_self_time_subtracts_direct_children():
    tracer = Tracer(layers=[])
    tracer.spans = [Span(0, "a", 0.0, 10.0, None), Span(1, "b", 1.0, 4.0, 0),
                    Span(2, "c", 2.0, 3.0, 1), Span(3, "b", 5.0, 6.0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_metric_names_match_benchmark_manifest():
    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert per_layer == run.PER_LAYER
    args = SimpleNamespace(workload="verify-bounds", seed=0, seconds=1, trace=0)
    untraced = run.Run(args, out_dir="")
    untraced.setup_times, untraced.command_times = [1.0], [2.0]
    assert {k: v["unit"] for k, v in untraced.metrics().items()} == \
        {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    traced = run.Run(SimpleNamespace(**{**vars(args), "trace": 1}), out_dir="")
    assert set(traced.metrics()) == set(per_layer)

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dualminkowski
from dualminkowski.bodies import cube_polytope
from dualminkowski.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_ERROR,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    main,
)
from dualminkowski.runio import (
    ConfigError,
    HypothesisError,
    load_config,
    read_body_file,
    resolve_problem,
    write_body_file,
)

SOLVE_CONFIG = {
    "n": 3,
    "p": -1.0,
    "q": 2.0,
    "group": {"name": "simplex-symmetry", "m": 3},
    "q_body": {"kind": "ball"},
    "measure": {"density": "constant", "value": 1.0 / 3.0},
    "directions": {"count": 162, "seed": 0},
    "grid": {"node_count": 4000},
    "solver": {"max_iters": 120},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def manifest_of(run_root):
    runs = sorted(os.listdir(run_root))
    assert runs
    with open(os.path.join(run_root, runs[-1], "manifest.json")) as fh:
        return json.load(fh), os.path.join(run_root, runs[-1])


class TestParseConfig:
    def test_minimal_solve_config_resolves(self, tmp_path):
        path = write_config(tmp_path, SOLVE_CONFIG)
        spec, solver_cfg, extras = resolve_problem(load_config(path))
        assert extras["s_exponent"] == pytest.approx(4.0 / 3.0)
        assert extras["q_star"] == pytest.approx(4.0)
        assert solver_cfg.max_iters == 120
        assert spec.mu.total_mass == pytest.approx(4 * math.pi / 3, rel=1e-6)

    def test_p_below_range_is_hypothesis_error(self, tmp_path):
        bad = dict(SOLVE_CONFIG, p=-5.0)
        with pytest.raises(HypothesisError, match="q\\* = 4"):
            resolve_problem(load_config(write_config(tmp_path, bad)))

    def test_missing_density_is_schema_error(self, tmp_path):
        bad = dict(SOLVE_CONFIG, measure={})
        with pytest.raises(ConfigError, match="density"):
            resolve_problem(load_config(write_config(tmp_path, bad)))

    def test_unknown_solver_field_rejected(self, tmp_path):
        bad = dict(SOLVE_CONFIG, solver={"learning_rate": 0.1})
        with pytest.raises(ConfigError, match="learning_rate"):
            resolve_problem(load_config(write_config(tmp_path, bad)))

    def test_non_invariant_q_is_hypothesis_error(self, tmp_path):
        bad = dict(SOLVE_CONFIG,
                   q_body={"kind": "ellipsoid", "half_axes": [1.0, 1.0, 1.5]})
        with pytest.raises(HypothesisError, match="invariant"):
            resolve_problem(load_config(write_config(tmp_path, bad)))

    def test_direct_sum_group_config(self):
        from dualminkowski.runio import resolve_group

        group = resolve_group({
            "name": "direct-sum",
            "parts": [{"name": "cyclic", "order": 3},
                      {"name": "cyclic", "order": 3}],
        }, n=4)
        assert group.dim == 4 and group.order == 9

    def test_generator_list_group_config(self):
        import math as m

        from dualminkowski.runio import resolve_group

        t = 2 * m.pi / 5
        rot = [[m.cos(t), -m.sin(t)], [m.sin(t), m.cos(t)]]
        group = resolve_group({"generators": [rot], "max_order": 50}, n=2)
        assert group.order == 5


class TestSolveCommand:
    def test_solve_run_directory(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = str(tmp_path / "runs")
        assert main(["solve", cfg, "--out", out]) == EXIT_OK
        manifest, run_dir = manifest_of(out)
        assert manifest["command"] == "solve"
        assert manifest["outcome"]["converged"]
        assert manifest["outcome"]["s_exponent"] == pytest.approx(4.0 / 3.0)
        iterations = manifest["outcome"]["iterations"]
        assert manifest["outcome"]["kernel_passes"] > iterations
        assert manifest["outcome"]["candidate_rebuilds"] >= 2
        assert set(manifest["outputs"]) == {"body.txt", "convergence.csv",
                                            "measure_atoms.csv"}
        body = read_body_file(os.path.join(run_dir, "body.txt"))
        assert body.facet_count == 162
        with open(os.path.join(run_dir, "convergence.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["iteration", "phi", "grad_norm", "diameter"]

    def test_manifest_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out_a = str(tmp_path / "runs_a")
        out_b = str(tmp_path / "runs_b")
        assert main(["solve", cfg, "--out", out_a]) == EXIT_OK
        assert main(["solve", cfg, "--out", out_b]) == EXIT_OK
        m_a, dir_a = manifest_of(out_a)
        m_b, dir_b = manifest_of(out_b)
        volatile = {"started_at_unix", "finished_at_unix", "wall_time_s"}
        for key in volatile:
            m_a.pop(key), m_b.pop(key)
        assert m_a == m_b
        body_a = open(os.path.join(dir_a, "body.txt")).read()
        body_b = open(os.path.join(dir_b, "body.txt")).read()
        assert body_a == body_b

    def test_hypothesis_violation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, p=-4.0))
        assert main(["solve", cfg, "--out", str(tmp_path / "r")]) == EXIT_HYPOTHESIS

    def test_broken_config_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path), "--out", str(tmp_path / "r")]) == EXIT_ERROR


class TestVerifyBoundsCommand:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "dimensions": [2, 3],
            "q_values": [0.5, 2.0],
            "boxes_per_case": 3,
            "grid_nodes": 50000,
            "seed": 5,
        })
        out = str(tmp_path / "runs")
        assert main(["verify-bounds", cfg, "--out", out]) == EXIT_OK
        manifest, run_dir = manifest_of(out)
        assert manifest["outcome"]["failures"] == 0
        assert manifest["outcome"]["cases"] == 12
        with open(os.path.join(run_dir, "bounds.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 13  # header + cases


class TestConstructCommand:
    def test_orbit_intersection(self, tmp_path):
        cfg = write_config(tmp_path, {
            "construction": "orbit-intersection-min",
            "n": 3,
            "group": {"name": "simplex-symmetry", "m": 3},
            "base": {"kind": "shifted-ball", "radius": 2.0,
                     "center": [0.5, 0, 0], "normal_count": 120},
            "seed": 4,
            "probe_nodes": 600,
        })
        out = str(tmp_path / "runs")
        assert main(["construct", cfg, "--out", out]) == EXIT_OK
        manifest, run_dir = manifest_of(out)
        assert manifest["outcome"]["non_origin_symmetric"]
        with open(os.path.join(run_dir, "certificate.json")) as fh:
            cert = json.load(fh)
        assert cert["max_gap"] > 0.01

    def test_dirichlet_voronoi(self, tmp_path):
        cfg = write_config(tmp_path, {
            "construction": "dirichlet-voronoi",
            "n": 2,
            "group": {"name": "cyclic", "order": 5},
            "anchor": [1.0, 0.4],
            "samples": 2000,
        })
        out = str(tmp_path / "runs")
        assert main(["construct", cfg, "--out", out]) == EXIT_OK
        manifest, _ = manifest_of(out)
        assert manifest["outcome"]["all_covered"]
        assert manifest["outcome"]["interiors_disjoint"]


class TestExportCommand:
    def test_mesh_roundtrip(self, tmp_path):
        body_path = str(tmp_path / "cube.txt")
        write_body_file(body_path, cube_polytope(3))
        cfg = write_config(tmp_path, {"body_file": body_path, "mesh": True})
        out = str(tmp_path / "runs")
        assert main(["export", cfg, "--out", out]) == EXIT_OK
        manifest, run_dir = manifest_of(out)
        assert "body.obj" in manifest["outputs"]
        obj = open(os.path.join(run_dir, "body.obj")).read().splitlines()
        v_lines = [l for l in obj if l.startswith("v ")]
        f_lines = [l for l in obj if l.startswith("f ")]
        assert len(v_lines) == 8 and len(f_lines) == 12

    def test_mesh_requires_n3(self, tmp_path):
        square = cube_polytope(2)
        body_path = str(tmp_path / "square.txt")
        write_body_file(body_path, square)
        cfg = write_config(tmp_path, {"body_file": body_path, "mesh": True})
        assert main(["export", cfg, "--out", str(tmp_path / "r")]) == EXIT_ERROR


class TestBodyFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        from conftest import random_polytope

        body = random_polytope(rng, 11)
        path = str(tmp_path / "b.txt")
        write_body_file(path, body)
        back = read_body_file(path)
        assert np.array_equal(back.normals, body.normals)
        assert np.array_equal(back.support, body.support)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\nfacets 2\nnormals\n1 0 0\n")
        with pytest.raises(ConfigError, match="malformed"):
            read_body_file(str(path))

    def test_malformed_rejected_under_optimize(self, tmp_path):
        """Header checks must survive python -O, which strips asserts."""
        path = tmp_path / "bad.txt"
        write_body_file(str(path), cube_polytope(3))
        path.write_text(path.read_text().replace("normals", "NORMALS"))
        probe = (
            "import sys\n"
            "from dualminkowski.runio import ConfigError, read_body_file\n"
            "try:\n"
            "    read_body_file(sys.argv[1])\n"
            "except ConfigError as exc:\n"
            "    print('ConfigError', sys.flags.optimize, exc)\n"
            "else:\n"
            "    print('accepted', sys.flags.optimize)\n"
        )
        src = os.path.dirname(os.path.dirname(dualminkowski.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", probe, str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ConfigError 1 "), done.stdout
        assert "'NORMALS'" in done.stdout


def test_selftest_command():
    assert main(["selftest"]) == EXIT_OK

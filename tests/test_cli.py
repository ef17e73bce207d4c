import hashlib
import importlib.util
import json
import math
import os
import re
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
    EXIT_NONCONVERGED,
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
from dualminkowski.sphere import stable_sum

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


# Edits of the unit cube's body file (see _edited_cube_file) that
# read_body_file rejects, and the reasons it gives: lines after the support
# section, and a second line that is not "facets <count>".
APPEND_LINES = ("support\n1\n1\n1\n1\n1\n1\n",
                "support\n1\n1\n1\n1\n1\n1\n7\n8\nhello\n")
TRAILING_LINES = ("malformed body file .*: expected 6 support numbers after "
                  "the 'support' header, got 9 lines")
RENAME_FACETS = ("facets 6\n", "count 6\n")
BAD_FACETS_LINE = ("malformed body file .*: second line must be "
                   "'facets <count>', got 'count 6'")


class TestParseConfig:
    def test_minimal_solve_config_resolves(self, tmp_path):
        path = write_config(tmp_path, SOLVE_CONFIG)
        spec, solver_cfg, extras = resolve_problem(load_config(path))
        assert extras["s_exponent"] == pytest.approx(4.0 / 3.0)
        assert extras["q_star"] == pytest.approx(4.0)
        assert solver_cfg.max_iters == 120
        assert stable_sum(spec.mu.atoms) == pytest.approx(4 * math.pi / 3,
                                                          rel=1e-6)

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

    def test_explicit_atoms_are_orbit_averaged(self, tmp_path):
        """Atoms that are not orbit-constant come out averaged, bit-equal
        to averaging each orbit of the raw list."""
        from dualminkowski.groups import orbits

        raw = np.random.default_rng(8).uniform(0.5, 1.5, 162).tolist()
        cfg = dict(SOLVE_CONFIG, measure={"atoms": raw})
        spec, _, extras = resolve_problem(load_config(write_config(tmp_path,
                                                                   cfg)))
        want = np.asarray(raw, dtype=float)
        for orbit in orbits(spec.group, spec.directions):
            want[orbit] = np.mean(want[orbit])
        assert not np.array_equal(want, raw)
        assert np.array_equal(spec.mu.atoms, want)
        assert extras["density_label"] == "explicit atoms"

    def test_direct_sum_group_config(self):
        from dualminkowski.runio import resolve_group

        group = resolve_group({
            "name": "direct-sum",
            "parts": [{"name": "cyclic", "order": 3},
                      {"name": "cyclic", "order": 3}],
        }, n=4)
        assert group.dim == 4 and group.order == 9

    def test_negation_group_reads_its_n(self):
        from dualminkowski.runio import resolve_group

        group = resolve_group({"name": "negation", "n": 3}, n=3)
        assert group.dim == 3 and group.order == 2

    def test_generator_list_group_config(self):
        import math as m

        from dualminkowski.runio import resolve_group

        t = 2 * m.pi / 5
        rot = [[m.cos(t), -m.sin(t)], [m.sin(t), m.cos(t)]]
        group = resolve_group({"generators": [rot], "max_order": 50}, n=2)
        assert group.order == 5


class TestSolveCommand:
    def test_solve_run_directory(self, tmp_path, monkeypatch):
        from dualminkowski import bodies, measures, solver

        measure = measures.lp_dual_curvature_measure
        profile = bodies.radial_profile
        minimize = solver.minimize_entropy
        calls, passes_minimized, profiles = [], [], []

        def counted(*args):
            calls.append(args)
            return measure(*args)

        def counted_profile(*args, **kwargs):
            profiles.append(args)
            return profile(*args, **kwargs)

        def minimize_then_count(spec, *args, **kwargs):
            result = minimize(spec, *args, **kwargs)
            passes_minimized.append(spec.radial.passes)
            return result

        monkeypatch.setattr(measures, "lp_dual_curvature_measure", counted)
        monkeypatch.setattr(solver, "minimize_entropy", minimize_then_count)
        for name, module in list(sys.modules.items()):
            if name.startswith("dualminkowski") and \
                    getattr(module, "radial_profile", None) is profile:
                monkeypatch.setattr(module, "radial_profile", counted_profile)
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = str(tmp_path / "runs")
        assert main(["solve", cfg, "--out", out]) == EXIT_OK
        # every pass is the spec's kernel: no dense radial_profile pass, and
        # measure_atoms.csv reuses the residual's atoms
        assert calls == [] and profiles == []
        manifest, run_dir = manifest_of(out)
        assert manifest["command"] == "solve"
        assert manifest["outcome"]["converged"]
        assert manifest["outcome"]["s_exponent"] == pytest.approx(4.0 / 3.0)
        iterations = manifest["outcome"]["iterations"]
        # after minimising: one kernel pass, over the rescaled solution
        assert manifest["outcome"]["kernel_passes"] == \
            passes_minimized[0] + 1 > iterations
        assert manifest["outcome"]["candidate_rebuilds"] == 1
        # each pass reads at least one candidate per node, never every facet
        passes = manifest["outcome"]["kernel_passes"]
        assert 4000 * passes <= manifest["outcome"]["kernel_cells"] \
            < 4000 * 162 * passes
        assert set(manifest["outputs"]) == {"body.txt", "convergence.csv",
                                            "measure_atoms.csv"}
        body = read_body_file(os.path.join(run_dir, "body.txt"))
        assert body.facet_count == 162
        with open(os.path.join(run_dir, "convergence.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["iteration", "phi", "grad_norm", "circumradius",
                          "step"]

    def test_iteration_cap_exits_3_with_strict_manifest(self, tmp_path):
        """A solve cut at max_iters exits 3 and still writes its outputs.
        At q = 1 the exponents q* and s are infinite, and the manifest
        writes them as strings: strict JSON has no Infinity."""
        payload = dict(SOLVE_CONFIG, q=1.0, solver={"max_iters": 3},
                       measure={"density": "cosine-bump", "base": 1.0,
                                "amplitude": 2.0, "power": 2.0,
                                "axis": [0.3, 0.2, 0.93]})
        out = str(tmp_path / "runs")
        assert main(["solve", write_config(tmp_path, payload),
                     "--out", out]) == EXIT_NONCONVERGED
        run_dir = os.path.join(out, os.listdir(out)[0])

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(os.path.join(run_dir, "manifest.json")) as fh:
            manifest = json.loads(fh.read(), parse_constant=refuse)
        outcome = manifest["outcome"]
        assert outcome["converged"] is False
        assert outcome["convergence_reason"] == "max-iterations"
        assert outcome["iterations"] == 3
        assert outcome["q_star"] == outcome["s_exponent"] == "inf"
        assert read_body_file(os.path.join(run_dir, "body.txt")).facet_count \
            == 162
        with open(os.path.join(run_dir, "convergence.csv")) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == 1 + 3

    def test_stall_above_the_floor_exits_3(self, tmp_path):
        """An n = 2 bump solve at q = 1 stops on the stall test with its
        gradient far above the quadrature floor: reason "stalled", exit 3,
        after 113 iterations (310 with steepest-descent steps). This pins
        the stop rule as it stands; a change to that rule may move this
        solve to another reason, with the reason recorded."""
        payload = {
            "n": 2, "p": -0.5, "q": 1.0,
            "group": {"name": "cyclic", "order": 5},
            "measure": {"density": "cosine-bump", "base": 1.0,
                        "amplitude": 2.0, "power": 2.0, "axis": [0.6, 0.8]},
            "directions": {"count": 200},
            "grid": {"node_count": 5000},
            "solver": {"gradient_tolerance": 1e-7},
        }
        out = str(tmp_path / "runs")
        assert main(["solve", write_config(tmp_path, payload),
                     "--out", out]) == EXIT_NONCONVERGED
        outcome = manifest_of(out)[0]["outcome"]
        assert outcome["converged"] is False
        assert outcome["convergence_reason"] == "stalled"
        assert outcome["iterations"] < 500
        assert outcome["gradient_final"] > 10.0 * outcome["gradient_floor"]

    def test_tight_tolerance_bump_reaches_the_floor(self, tmp_path):
        """The benchmark's bump solve at gradient_tolerance 1e-7, below its
        quadrature floor: it stops on "quadrature-floor" and exits 0, in 46
        iterations (steepest-descent steps ran out at max_iters 500)."""
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench", "configs.py")
        module_spec = importlib.util.spec_from_file_location(
            "perfbench_configs", path)
        configs = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(configs)
        payload = configs.solve_bump(0)
        payload["solver"]["gradient_tolerance"] = 1e-7
        out = str(tmp_path / "runs")
        assert main(["solve", write_config(tmp_path, payload),
                     "--out", out]) == EXIT_OK
        outcome = manifest_of(out)[0]["outcome"]
        assert outcome["convergence_reason"] == "quadrature-floor"
        assert outcome["iterations"] < 100
        assert outcome["kernel_passes"] == 2 + outcome["iterations"] + \
            outcome["line_search_passes"]
        assert isinstance(outcome["quasi_newton_resets"], int)
        with open(os.path.join(manifest_of(out)[1], "convergence.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        assert rows[0][-1] == "step" and len(rows) == 1 + outcome["iterations"]
        # every iteration but the last took a step
        assert all(float(row[-1]) > 0 for row in rows[1:-1])
        assert rows[-1][-1] == ""

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

    @pytest.mark.parametrize("change, message", [
        ({"p": 0.5}, "p must be negative"),
        ({"p": -5.0}, "outside the admissible range -q* < p < 0 (q* = 4"),
        ({"q": -1.0}, "q must be positive"),
        ({"group": {"generators": [[[-0.5, -0.75 ** 0.5, 0.0],
                                    [0.75 ** 0.5, -0.5, 0.0],
                                    [0.0, 0.0, 1.0]]]}},
         "group has a nonzero fixed vector; coercivity"),
        ({"q_body": {"kind": "ellipsoid", "half_axes": [1.0, 1.0, 1.5]}},
         "Q is not group-invariant"),
    ], ids=["p-positive", "p-below", "q-negative", "axial-group",
            "ellipsoid-q"])
    def test_hypothesis_violations_exit_2(self, tmp_path, capsys, change,
                                          message):
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, **change))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("hypothesis violation: ") and message in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("measure, field", [
        ({"atoms": [1.0] * 100}, "measure.atoms"),
        ({"atoms": [True] * 162}, "measure.atoms"),
        ({"atoms": [1.0] * 161 + [-1.0]}, "measure.atoms"),
        ({"atoms": [1.0] * 161 + ["1"]}, "measure.atoms"),
        ({"atoms": 1.0}, "measure.atoms"),
        ({"density": "constant", "value": True}, "value"),
        ({"density": "constant", "value": float("inf")}, "value"),
        ({"density": "cosine-bump", "axis": [0, 0, 0]}, "axis"),
        ({"density": "cosine-bump", "axis": [1, 0]}, "axis"),
        ({"density": "cosine-bump", "axis": [1, 0, float("nan")]}, "axis"),
        ({"density": "cosine-bump", "axis": [1, 0, 0], "base": "1"}, "base"),
        ({"density": "cosine-bump", "axis": [1, 0, 0], "amplitude": None},
         "amplitude"),
        ({"density": "cosine-bump", "axis": [1, 0, 0], "power": False},
         "power"),
        ({"density": "cosine-bump", "axis": [1, 0, 0], "base": -1.0}, "base"),
        ({"density": "cosine-bump", "axis": [1, 0, 0], "power": -2}, "power"),
    ])
    def test_bad_measure_field_fails_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch, measure,
                                                    field):
        from dualminkowski import runio

        def no_work(*args, **kwargs):
            raise AssertionError("directions built before the measure check")

        monkeypatch.setattr(runio, "invariant_directions", no_work)
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, measure=measure))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        assert f"config error: field {field!r}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("solver_cfg", [{"max_iters": 0},
                                            {"gradient_tolerance": 0.0},
                                            {"shrink": 0.5}])
    def test_bad_solver_field_fails_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch, solver_cfg):
        from dualminkowski import runio

        def no_work(*args, **kwargs):
            raise AssertionError("problem data resolved before the solver")

        monkeypatch.setattr(runio, "invariant_directions", no_work)
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, solver=solver_cfg))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        field = next(iter(solver_cfg))
        # shrink is a line-search constant now, not a setting
        message = (f"unknown solver fields: [{field!r}]" if field == "shrink"
                   else f"solver field {field!r}")
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("change, field", [
        ({"n": True}, "n"),
        ({"n": 3.0}, "n"),
        ({"p": True}, "p"),
        ({"p": float("nan")}, "p"),
        ({"q": False}, "q"),
        ({"q": "2"}, "q"),
        ({"grid": {"node_count": 4}}, "grid.node_count"),
        ({"grid": {"node_count": True}}, "grid.node_count"),
        ({"grid": {"scheme": "hexagonal"}}, "grid.scheme"),
        ({"grid": {"scheme": "uniform-angle"}}, "grid.scheme"),
        ({"grid": {"seed": 1.5}}, "grid.seed"),
        ({"grid": []}, "grid"),
        ({"directions": {"count": 0}}, "directions.count"),
        ({"directions": {"count": "162"}}, "directions.count"),
        ({"directions": {"count": 162, "seed": None}}, "directions.seed"),
        ({"q_body": {"kind": "ball", "radius": True}}, "q_body.radius"),
        ({"q_body": {"kind": "ball", "radius": "2"}}, "q_body.radius"),
        ({"q_body": {"kind": "ellipsoid", "half_axes": [1, "a", 2]}},
         "q_body.half_axes"),
        ({"group": {"generators": [[[0.0, -1.0], [1.0, 0.0]]]}},
         "group.generators"),
        ({"group": {"generators": [np.eye(3).tolist()], "max_order": "x"}},
         "group.max_order"),
        ({"n": 2}, "n"),
        ({"export_mesh": "no"}, "export_mesh"),
        ({"group": {"generators": [np.eye(3).tolist()], "max_order": 10001}},
         "group.max_order"),
    ])
    def test_bad_problem_field_fails_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch, change,
                                                    field):
        from dualminkowski import runio

        def no_work(*args, **kwargs):
            raise AssertionError("directions built before the field check")

        monkeypatch.setattr(runio, "invariant_directions", no_work)
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, **change))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        assert f"config error: field {field!r}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("change, message", [
        ({"grid_nodes": 4000}, "unknown top-level fields: ['grid_nodes']"),
        ({"directions": {"count": 162, "sed": 1}},
         "unknown directions fields: ['sed']"),
        ({"grid": {"node_cout": 4000}}, "unknown grid fields: ['node_cout']"),
        ({"q_body": {"kind": "ball", "half_axes": [1, 1, 1]}},
         "unknown q_body fields: ['half_axes']"),
        ({"q_body": {"kind": "ellipsoid", "half_axes": [1, 1, 1],
                     "radius": 2}}, "unknown q_body fields: ['radius']"),
        ({"q_body": {"kind": "body-file", "path": "x.txt", "prune": True}},
         "unknown q_body fields: ['prune']"),
        ({"measure": {"atoms": [1.0] * 162, "density": "constant"}},
         "unknown measure fields: ['density']"),
        ({"measure": {"density": "constant", "value": 1.0, "vaule": 2.0}},
         "unknown measure fields: ['vaule']"),
        ({"measure": {"density": "cosine-bump", "axis": [1, 0, 0],
                      "amp": 2.0}}, "unknown measure fields: ['amp']"),
    ], ids=["top-level", "directions", "grid", "ball", "ellipsoid",
            "body-file", "atoms", "constant", "cosine-bump"])
    def test_unknown_problem_field_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, change, message):
        """A misspelt solve field is an error, not a silently used
        default."""
        from dualminkowski import runio

        def no_work(*args, **kwargs):
            raise AssertionError("directions built before the field check")

        monkeypatch.setattr(runio, "invariant_directions", no_work)
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, **change))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_catalogue_group_is_certified_once(self, tmp_path, capsys,
                                               monkeypatch):
        """A solve certifies its group once, in ProblemSpec, whose
        certificate the manifest reports. standard_group returns the group
        as built: a catalogue constructor that yields a group with a fixed
        vector reaches ProblemSpec, whose hypothesis check rejects it with
        exit 2 and no run directory, and construct's own check rejects it
        too."""
        from dualminkowski import groups

        certified = []

        def counted(group):
            certified.append(group.label)
            return certify(group)

        certify = groups.certify
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("dualminkowski") \
                    and getattr(module, "certify", None) is certify:
                monkeypatch.setattr(module, "certify", counted)
        _, _, extras = resolve_problem(SOLVE_CONFIG)
        assert certified == ["simplex-symmetry(3)"]
        assert extras["group_certificate"]["order"] == 24

        def trivial(m):
            return groups.OrthogonalGroup(dim=m, elements=np.eye(m)[None])

        monkeypatch.setattr(groups, "simplex_symmetry", trivial)
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("hypothesis violation: group has a nonzero "
                              "fixed vector")
        assert not out.exists() or not any(out.iterdir())
        cfg = write_config(tmp_path, {"n": 3, "group": SOLVE_CONFIG["group"],
                                      "base": {"normal_count": 60},
                                      "probe_nodes": 200}, "construct.json")
        assert main(["construct", cfg, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(
            "error: group must have no nonzero fixed point and must not "
            "contain -I")

    @pytest.mark.parametrize("group, message", [
        ({"name": "negation", "n": 2}, "field 'n' must be 2"),
        ({"name": "simplex-symmetry", "m": "3"},
         "field 'group.m' must be an integer, got '3'"),
        ({"name": "simplex-symmetry", "m": 2.5},
         "field 'group.m' must be an integer, got 2.5"),
        ({"name": "simplex-symmetry", "m": True},
         "field 'group.m' must be an integer, got True"),
        ({"name": "negation", "n": 3.0},
         "field 'group.n' must be an integer, got 3.0"),
        ({"name": "cyclic"}, "missing required field 'group.order'"),
        ({"name": "cyclic", "order": False},
         "field 'group.order' must be an integer, got False"),
        ({"name": "direct-sum", "parts": [{"name": "cyclic", "order": "3"}]},
         "field 'group.parts[0].order' must be an integer, got '3'"),
        ({"name": "direct-sum", "parts": [{"name": "cyclic", "order": 3},
                                          {"name": "negation", "n": True}]},
         "field 'group.parts[1].n' must be an integer, got True"),
        ({"name": "direct-sum", "parts": [{"name": "simplex-symmetry"}]},
         "missing required field 'group.parts[0].m'"),
        ({"name": "direct-sum", "parts": [{"order": 3}]},
         "missing required field 'group.parts[0].name'"),
    ], ids=["negation-n-mismatch", "m-string", "m-float", "m-bool",
            "n-float", "no-order", "order-bool", "part-order-string",
            "part-n-bool", "part-no-m", "part-no-name"])
    def test_bad_group_parameter_fails_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, group,
                                                       message):
        """Catalogue parameters are config fields: integers, booleans
        rejected, named in the error."""
        self._assert_config_error(tmp_path, capsys, monkeypatch, group,
                                  message)

    @pytest.mark.parametrize("group, message", [
        ({"name": "simplex-symmetry", "M": 4}, "unknown group fields: ['M']"),
        ({"name": "cyclic", "order": 5, "oder": 3},
         "unknown group fields: ['oder']"),
        ({"name": "negation", "n": 3, "m": 3, "label": "x"},
         "unknown group fields: ['label', 'm']"),
        ({"name": "direct-sum", "parts": [{"name": "cyclic", "order": 3}],
          "order": 3}, "unknown group fields: ['order']"),
        ({"name": "direct-sum", "parts": [{"name": "cyclic", "order": 3},
                                          {"name": "cyclic", "m": 3,
                                           "order": 5}]},
         "unknown group.parts[1] fields: ['m']"),
        ({"generators": [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0]]], "max_ordr": 5},
         "unknown group fields: ['max_ordr']"),
        ({"generators": [np.eye(3).tolist()], "name": "cyclic"},
         "unknown group fields: ['name']"),
    ], ids=["catalogue-M", "cyclic-oder", "negation-two", "direct-sum-order",
            "part-m", "generators-max-ordr", "generators-name"])
    def test_unknown_group_field_fails_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch, group,
                                                      message):
        """A misspelt group field is an error, not a silently used
        default."""
        self._assert_config_error(tmp_path, capsys, monkeypatch, group,
                                  message)

    @pytest.mark.parametrize("group, field, value", [
        ({"name": "simplex-symmetry", "m": 7}, "group.m", "7"),
        ({"name": "simplex-rotation", "m": 7}, "group.m", "7"),
        ({"name": "simplex-symmetry", "m": 10 ** 12}, "group.m",
         "1000000000000"),
        ({"name": "cube-rotation", "m": 7}, "group.m", "7"),
        ({"name": "cyclic", "order": 10001}, "group.order", "10001"),
        ({"name": "direct-sum", "parts": [{"name": "simplex-symmetry",
                                           "m": 7}]},
         "group.parts[0].m", "7"),
        ({"name": "direct-sum", "parts": [{"name": "cyclic", "order": 101},
                                          {"name": "cyclic", "order": 101}]},
         "group.parts", "[{'name': 'cyclic', 'order': 101}, {"),
    ], ids=["simplex-7", "simplex-rotation-7", "simplex-huge", "cube-7",
            "cyclic-10001", "part-simplex-7", "direct-sum-product"])
    def test_oversized_group_fails_before_it_is_built(self, tmp_path, capsys,
                                                     monkeypatch, group,
                                                     field, value):
        """The number of matrices a catalogue group builds, (m+1)! for the
        simplex groups, 2^m m! for the cube rotations, the order of a cyclic
        group and the product of the parts of a direct sum, is bounded by
        the 10000 that enumerate_group allows, before any is built."""
        from dualminkowski import runio

        def no_group(*args, **kwargs):
            raise AssertionError("group built before the size check")

        monkeypatch.setattr(runio, "standard_group", no_group)
        self._assert_config_error(
            tmp_path, capsys, monkeypatch, group,
            f"field {field!r} must give a group built from at most 10000 "
            f"matrices, got {value}")

    def test_largest_catalogue_groups_pass_the_size_check(self):
        from dualminkowski.runio import resolve_group

        assert resolve_group({"name": "cube-rotation"}, n=5).order == 1920
        assert resolve_group({"name": "cyclic", "order": 9999},
                             n=2).order == 9999

    @staticmethod
    def _assert_config_error(tmp_path, capsys, monkeypatch, group, message):
        """The solve with this group section exits with a config error that
        starts with message, before any direction work or run directory."""
        from dualminkowski import runio

        def no_work(*args, **kwargs):
            raise AssertionError("directions built before the group check")

        monkeypatch.setattr(runio, "invariant_directions", no_work)
        cfg = write_config(tmp_path, dict(SOLVE_CONFIG, group=group))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("target, reason", [
        ("missing.txt", "cannot read body file .*: No such file or directory"),
        (".", "cannot read body file .*: Is a directory"),
        ("nan.txt", "support entry 1 is not finite: nan"),
        ("long.txt", TRAILING_LINES),
        ("header.txt", BAD_FACETS_LINE),
    ], ids=["missing", "directory", "nan-support", "trailing-lines",
            "bad-facets-line"])
    def test_bad_q_body_file_fails_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch, target,
                                                   reason):
        from dualminkowski import runio

        def no_work(*args, **kwargs):
            raise AssertionError("directions built before the Q check")

        monkeypatch.setattr(runio, "invariant_directions", no_work)
        _edited_cube_file(tmp_path / "nan.txt", "support\n1\n1",
                          "support\n1\nnan")
        _edited_cube_file(tmp_path / "long.txt", *APPEND_LINES)
        _edited_cube_file(tmp_path / "header.txt", *RENAME_FACETS)
        cfg = write_config(tmp_path, dict(
            SOLVE_CONFIG, q_body={"kind": "body-file",
                                  "path": str(tmp_path / target)}))
        out = tmp_path / "runs"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.match(rf"config error: field 'q_body.path': {reason}", err)
        assert not out.exists() or not any(out.iterdir())

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
            "seed": 5,
        })
        out = str(tmp_path / "runs")
        assert main(["verify-bounds", cfg, "--out", out]) == EXIT_OK
        manifest, run_dir = manifest_of(out)
        outcome = manifest["outcome"]
        assert outcome["failures"] == 0
        assert outcome["cases"] == 12
        # n = 2: q = 0.5 fractional, q = 2 top; n = 3: fractional, integer-log
        assert outcome["branch_counts"] == {"fractional": 6, "top": 3,
                                            "integer-log": 3}
        with open(os.path.join(run_dir, "bounds.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 13  # header + cases
        margins = []
        for row in rows[1:]:
            lower, observed, upper = map(float, row.split(",")[4:7])
            margins.append(min(math.log(observed / lower),
                               math.log(upper / observed)))
        assert 0 < outcome["worst_margin"] == pytest.approx(min(margins),
                                                            rel=1e-9)

    def test_bounds_csv_pinned(self, tmp_path):
        """The whole box path (box draws, exact dual volumes, brackets, CSV
        cells), n = 8 included. A grid_nodes field, which no longer has a
        use, is ignored like any field the command does not read."""
        cfg = write_config(tmp_path, {"dimensions": [2, 3, 4, 8],
                                      "boxes_per_case": 2,
                                      "grid_nodes": 20000})
        out = str(tmp_path / "runs")
        assert main(["verify-bounds", cfg, "--out", out]) == EXIT_OK
        _, run_dir = manifest_of(out)
        with open(os.path.join(run_dir, "bounds.csv"), "rb") as fh:
            table = fh.read()
        assert hashlib.sha256(table).hexdigest() == (
            "b1d57f7119bdf9a0072393e36da26deb"
            "f8e6b6f1ba2510c61a57d93ee5d9e27e")
        # every column but observed keeps the digest it had when a
        # Monte-Carlo grid gave the observed values: the boxes, brackets
        # and verdicts did not move
        rows = [row.split(b",") for row in table.splitlines(keepends=True)]
        brackets = b"".join(b",".join(row[:5] + row[6:]) for row in rows)
        assert hashlib.sha256(brackets).hexdigest() == (
            "4422d754a85992fc9a51112593462d9e"
            "dff06c8287970297a48a1d3a516a938f")

    def test_degenerate_value_is_named(self, tmp_path, capsys):
        """Axes of 1e-200 put the dual volume and its bracket below the
        double range: the command fails naming the box, not with a bare
        math domain error."""
        cfg = write_config(tmp_path, {"dimensions": [3], "q_values": [2],
                                      "boxes_per_case": 1,
                                      "axis_range": [1e-200, 1e-200]})
        out = str(tmp_path / "runs")
        assert main(["verify-bounds", cfg, "--out", out]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.match(r"error: degenerate bracket for n = 3, q = 2, "
                        r"half-axes \[1e-200, 1e-200, 1e-200\]: lower 0, "
                        r"observed 0, upper 0; each must be finite and "
                        r"positive$", err)

    def test_failure_leaves_error_json(self, tmp_path, capsys):
        """A failure after the run directory exists leaves error.json
        there: the command, its config, the error and the traceback. The
        exit code and the stderr line are those of any error."""
        sweep = {"dimensions": [3], "q_values": [2], "boxes_per_case": 1,
                 "axis_range": [1e-200, 1e-200]}
        cfg = write_config(tmp_path, sweep)
        out = tmp_path / "runs"
        assert main(["verify-bounds", cfg, "--out", str(out)]) == EXIT_ERROR
        line = capsys.readouterr().err
        assert line.startswith("error: degenerate bracket for n = 3")
        (run_dir,) = out.iterdir()
        assert [p.name for p in run_dir.iterdir()] == ["error.json"]
        report = json.loads((run_dir / "error.json").read_text())
        assert report["command"] == "verify-bounds"
        assert report["resolved_config"] == sweep
        assert report["error"] == "ValueError: " + line[len("error: "):-1]
        assert report["traceback"].startswith("Traceback (most recent call")
        assert "in verify_box" in report["traceback"]
        assert report["tool_version"] == dualminkowski.__version__

    @pytest.mark.parametrize("field, value", [
        ("boxes_per_case", 0),
        ("q_values", []),
        ("q_values", [0.5, -1.0]),
        ("axis_range", [0, 30]),
        ("axis_range", [30, 0.3]),
        ("axis_range", [0.3]),
        ("dimensions", [1, 2]),
        ("dimensions", []),
        ("seed", 1.5),
        ("seed", -1),
        ("boxes_per_case", 2.0),
        ("dimensions", [2.0]),
    ])
    def test_bad_config_leaves_no_run_directory(self, tmp_path, capsys,
                                                field, value):
        cfg = write_config(tmp_path, {"dimensions": [2], "q_values": [2.0],
                                      "boxes_per_case": 1, field: value})
        out = tmp_path / "runs"
        assert main(["verify-bounds", cfg, "--out", str(out)]) == EXIT_ERROR
        assert f"config error: field {field!r}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


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
        assert 0 < manifest["outcome"]["active_constraints"] < \
            manifest["outcome"]["facets"]
        with open(os.path.join(run_dir, "certificate.json")) as fh:
            cert = json.load(fh)
        assert cert["max_gap"] > 0.01

    @pytest.mark.parametrize("n, group", [
        (2, {"name": "cyclic", "order": 5}),
        (4, {"name": "direct-sum", "parts": [{"name": "cyclic", "order": 3},
                                             {"name": "cyclic", "order": 5}]}),
    ], ids=["n2", "n4"])
    def test_orbit_intersection_other_dimensions(self, tmp_path, n, group):
        """The certificate's deviation is the constraint-match bound of the
        written body, and its asymmetry equals the dense probe over every
        constraint (on the default probe grid, since only n = 3 reads
        probe_nodes)."""
        from dualminkowski.runio import resolve_group
        from dualminkowski.sphere import probe_grid

        from conftest import (assert_bound_covers_probe, dense_asymmetry,
                              reference_invariance_bound)

        cfg = write_config(tmp_path, {
            "construction": "orbit-intersection-min",
            "n": n,
            "group": group,
            "base": {"kind": "shifted-ball", "radius": 2.0,
                     "center": [0.5] + [0.0] * (n - 1), "normal_count": 60},
            "seed": 2,
        })
        out = str(tmp_path / "runs")
        assert main(["construct", cfg, "--out", out]) == EXIT_OK
        manifest, run_dir = manifest_of(out)
        with open(os.path.join(run_dir, "certificate.json")) as fh:
            cert = json.load(fh)
        body = read_body_file(os.path.join(run_dir, "body.txt"))
        resolved = resolve_group(group, n)
        deviation = reference_invariance_bound(body, resolved)
        assert cert["invariance_method"] == "constraint-match"
        assert cert["invariance_deviation"] == deviation
        assert_bound_covers_probe(deviation, body, resolved, probe_grid(n))
        gap, witness = dense_asymmetry(body, probe_grid(n))
        assert cert["max_gap"] == gap
        assert cert["witness"] == witness.tolist()
        outcome = manifest["outcome"]
        assert outcome["facets"] == body.facet_count
        assert 0 < outcome["active_constraints"] <= outcome["facets"]
        assert outcome["invariance_method"] == "constraint-match"

    @pytest.mark.parametrize("change, message", [
        ({"group": None}, "missing required field 'group'"),
        ({"construction": "orbit-union"}, "unknown construction"),
        ({"base": {"kind": "cube"}}, "only the shifted-ball base"),
    ], ids=["no-group", "unknown-construction", "unknown-base"])
    def test_config_error_leaves_no_run_directory(self, tmp_path, capsys,
                                                  change, message):
        cfg = {"construction": "orbit-intersection-min", "n": 3,
               "group": {"name": "simplex-symmetry", "m": 3}, **change}
        cfg = {k: v for k, v in cfg.items() if v is not None}
        out = tmp_path / "runs"
        assert main(["construct", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("change, field", [
        ({"n": True}, "n"),
        ({"group": {"name": "cyclic", "order": 5}}, "n"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"probe_nodes": 4}, "probe_nodes"),
        ({"base": {"radius": "2"}}, "base.radius"),
        ({"base": {"radius": 1.0, "center": [0.5, 1.0, 0.0]}}, "base.center"),
        ({"base": {"normal_count": 3}}, "base.normal_count"),
        ({"construction": "dirichlet-voronoi", "samples": 0}, "samples"),
        ({"construction": "dirichlet-voronoi", "anchor": [1.0, 0.3]},
         "anchor"),
        ({"construction": "dirichlet-voronoi", "n": 2,
          "group": {"name": "negation"}}, "anchor"),  # -I: never generic
    ])
    def test_bad_field_leaves_no_run_directory(self, tmp_path, capsys,
                                               change, field):
        cfg = {"construction": "orbit-intersection-min", "n": 3,
               "group": {"name": "simplex-symmetry", "m": 3}, **change}
        out = tmp_path / "runs"
        assert main(["construct", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_ERROR
        assert f"config error: field {field!r}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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

    def test_missing_body_file_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mesh": True})
        out = tmp_path / "runs"
        assert main(["export", cfg, "--out", str(out)]) == EXIT_ERROR
        assert "config error: missing required field 'body_file'" in \
            capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("target, edit, reason", [
        ("missing.txt", None,
         "cannot read body file .*: No such file or directory"),
        (".", None, "cannot read body file .*: Is a directory"),
        ("bad.txt", ("support\n1\n1", "support\n1\nnan"),
         "support entry 1 is not finite: nan"),
        ("bad.txt", ("support\n1\n1", "support\n1\ninf"),
         "support entry 1 is not finite: inf"),
        ("bad.txt", ("\n0 0 1\n", "\nnan 0 1\n"),
         r"normals row 2 is not finite: \[nan"),
        ("bad.txt", ("support\n1\n1", "support\n1\n-1"),
         r"support number 1 = -1\.000e\+00 is not positive"),
        ("bad.txt", APPEND_LINES, TRAILING_LINES),
        ("bad.txt", RENAME_FACETS, BAD_FACETS_LINE),
    ], ids=["missing", "directory", "nan-support", "inf-support",
            "nan-normal", "negative-support", "trailing-lines",
            "bad-facets-line"])
    def test_bad_body_file_is_config_error(self, tmp_path, capsys, target,
                                           edit, reason):
        if edit:
            _edited_cube_file(tmp_path / target, *edit)
        cfg = write_config(tmp_path, {"body_file": str(tmp_path / target)})
        out = tmp_path / "runs"
        assert main(["export", cfg, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.match(rf"config error: field 'body_file': {reason}", err)
        assert not out.exists() or not any(out.iterdir())

    def test_mesh_requires_n3(self, tmp_path, capsys):
        square = cube_polytope(2)
        body_path = str(tmp_path / "square.txt")
        write_body_file(body_path, square)
        cfg = write_config(tmp_path, {"body_file": body_path, "mesh": True})
        out = tmp_path / "runs"
        assert main(["export", cfg, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(
            "config error: field 'mesh': mesh export requires n = 3")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("field", ["prune", "mesh"])
    def test_flags_must_be_booleans(self, tmp_path, capsys, field):
        body_path = str(tmp_path / "cube.txt")
        write_body_file(body_path, cube_polytope(3))
        cfg = write_config(tmp_path, {"body_file": body_path, field: "no"})
        out = tmp_path / "runs"
        assert main(["export", cfg, "--out", str(out)]) == EXIT_ERROR
        assert f"config error: field {field!r} must be true or false" in \
            capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def _edited_cube_file(path, old, new):
    """The unit cube's body file with the first old replaced by new."""
    write_body_file(str(path), cube_polytope(3))
    path.write_text(path.read_text().replace(old, new, 1))


def _per_scalar_body_file(path, body):
    """The body file format written one numpy scalar at a time."""
    with open(path, "w") as fh:
        fh.write(f"n {body.dim}\n")
        fh.write(f"facets {body.facet_count}\n")
        fh.write("normals\n")
        for row in body.normals:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        fh.write("support\n")
        for h in body.support:
            fh.write(f"{h:.17g}\n")


class TestBodyFileFormat:
    def test_matches_per_scalar_formatting(self, tmp_path):
        """Formatting the Python floats of tolist() writes the bytes of
        formatting each numpy scalar, -0.0 included, on a pooled construct
        body."""
        from dualminkowski.bodies import SupportPolytope, shifted_ball_polytope
        from dualminkowski.constructions import orbit_intersection_body
        from dualminkowski.groups import simplex_symmetry
        from dualminkowski.sphere import fibonacci_sphere_nodes

        base = shifted_ball_polytope(fibonacci_sphere_nodes(160), 2.0,
                                     np.array([0.5, 0.0, 0.0]))
        pooled, _ = orbit_intersection_body(simplex_symmetry(3), base, seed=3)
        body = SupportPolytope(
            dim=3, normals=np.vstack([pooled.normals, -np.eye(3)]),
            support=np.concatenate([pooled.support, [5.0, 5.0, 5.0]]))
        assert body.facet_count == 3843
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_body_file(str(got), body)
        _per_scalar_body_file(str(want), body)
        assert "\n-1 -0 -0\n" in want.read_text()
        assert got.read_bytes() == want.read_bytes()
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


# Run in a fresh interpreter, since the test session has scipy loaded: the
# exit code and the scipy modules a command leaves in sys.modules.
_IMPORT_PROBE = """
import json, sys
from dualminkowski.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy")]))
"""


def _fresh_process(tmp_path, script, *argv):
    src = os.path.dirname(os.path.dirname(dualminkowski.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestImportSet:
    """Each command loads only the scipy modules it calls."""

    def test_verify_bounds_loads_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, {"dimensions": [2, 3],
                                      "q_values": [0.5, 2.0],
                                      "boxes_per_case": 1})
        assert _fresh_process(tmp_path, _IMPORT_PROBE, "verify-bounds", cfg,
                              "--out", "runs") == [EXIT_OK, []]

    @pytest.mark.parametrize("command, config, spatial", [
        ("solve", dict(SOLVE_CONFIG, solver={"max_iters": 5}), False),
        ("solve", dict(SOLVE_CONFIG, solver={"max_iters": 5},
                       export_mesh=True), True),
        ("construct", {"construction": "orbit-intersection-min", "n": 3,
                       "group": {"name": "simplex-symmetry", "m": 3},
                       "base": {"kind": "shifted-ball", "radius": 2.0,
                                "center": [0.5, 0, 0], "normal_count": 120},
                       "seed": 4, "probe_nodes": 600}, True),
    ], ids=["solve", "solve-export-mesh", "construct"])
    def test_no_optimize(self, tmp_path, command, config, spatial):
        """A solve loads no scipy module, unless it exports the mesh, which
        takes a Qhull hull; a construct loads scipy.spatial. None loads
        scipy.optimize."""
        cfg = write_config(tmp_path, config)
        code, loaded = _fresh_process(tmp_path, _IMPORT_PROBE, command, cfg,
                                      "--out", "runs")
        assert code in (EXIT_OK, EXIT_NONCONVERGED)
        if spatial:
            assert "scipy.spatial" in loaded
            assert not [m for m in loaded if m.startswith("scipy.optimize")]
        else:
            assert loaded == []


def test_selftest_command():
    assert main(["selftest"]) == EXIT_OK


def test_manifest_reads_the_clock_once(tmp_path, monkeypatch):
    """wall_time_s is finished_at_unix - started_at_unix exactly."""
    from types import SimpleNamespace

    from dualminkowski import runio

    ticks = iter([10.0, 20.0])
    monkeypatch.setattr(runio, "time",
                        SimpleNamespace(time=lambda: next(ticks)))
    path = runio.write_manifest(str(tmp_path), "export", {}, {}, [], 4.0)
    with open(path) as fh:
        manifest = json.load(fh)
    assert manifest["finished_at_unix"] == 10.0
    assert manifest["wall_time_s"] == 6.0

"""Benchmark of the dualminkowski command line, end to end and by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve-flagship --seed 0 --seconds 15 --trace 0

One closed-loop client in this process calls `dualminkowski.cli.main` the way
the console script does, sending its next command only after the previous
one returns. BLAS and OpenMP pools are pinned to one thread. The package is
imported from `src/` of the checkout; without it the benchmark exits with
code 2 and prints no result.

Workloads (configs come from `configs.py`, seeded by --seed):

- solve-flagship: one `solve` of the ROADMAP flagship (tetrahedral group,
  642 directions, 20000 Fibonacci nodes); the exact answer is a ball.
- solve-bump: one `solve` with a cosine-bump density; stops on the gradient
  tolerance after real descent.
- construct-certify: criterion-9 `construct` bodies over consecutive
  rotation seeds for --seconds, then the three Dirichlet-Voronoi cone checks.
- verify-bounds: criterion-5 `verify-bounds` sweeps (42 boxes each on
  200000-node Monte-Carlo grids) for --seconds.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s, command_s (median wall time of one primary command) and
peak_rss_mb. setup_s is the median of three set-ups before the first command
plus one before each further command; a solve's set-up is resolve_problem,
timed twice directly and once inside the solve command. With --trace 1 every command runs twice,
untraced and then traced, and the line carries per-layer self times (mean
per traced command that entered the layer), counts from the outputs, and
trace.overhead_s. Each run also leaves `result.json` (configs, provenance,
checks, timings) and, traced, `spans.json` under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

# per-layer metric -> unit; "_s" metrics are self seconds per command
PER_LAYER = {
    "groups.enumerate_s": "s",
    "groups.invariant_directions_s": "s",
    "groups.orbits_s": "s",
    "sphere.build_grid_s": "s",
    "sphere.stable_sum_s": "s",
    "solver.spec_build_s": "s",
    "solver.minimize_s": "s",
    "solver.iterations": "count",
    "solver.s_per_iter": "s",
    "solver.euler_lagrange_s": "s",
    "solver.assemble_s": "s",
    "solver.residual": "1",
    "solver.radial_rms_err": "1",
    "measures.lp_dual_curvature_measure_s": "s",
    "runio.write_s": "s",
    "bodies.is_invariant_s": "s",
    "bodies.star_radial_s": "s",
    "constructions.orbit_intersection_body_s": "s",
    "constructions.pooled_constraints": "count",
    "constructions.fundamental_domain_check_s": "s",
    "constructions.certified_share": "1",
    "bounds.verify_box_s": "s",
    "bounds.box_bounds_s": "s",
    "bounds.bracket_pass_share": "1",
    "trace.overhead_s": "s",
}


class Command:
    """One finished CLI call: exit code, run directory, wall time, spans."""

    def __init__(self, exit_code, run_dir, seconds, tracer):
        self.exit_code = exit_code
        self.run_dir = run_dir
        self.seconds = seconds
        self.tracer = tracer

    def read_json(self, name: str) -> dict:
        with open(os.path.join(self.run_dir, name)) as fh:
            return json.load(fh)

    @property
    def outcome(self) -> dict:
        return self.read_json("manifest.json")["outcome"]


class Run:
    """State of one benchmark run: configs, timings, failures, layer sums."""

    def __init__(self, args, out_dir):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.out_dir = out_dir
        self.configs: list[dict] = []
        self.setup_times: list[float] = []
        self.command_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.layer_sum: dict[str, float] = {}
        self.layer_n: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.overheads: list[float] = []
        self.spans: list[dict] = []

    # -- set-up -----------------------------------------------------------

    def setup(self, fn, repeats: int):
        """Time fn() `repeats` times; return its last result for the checks."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            self.setup_times.append(time.perf_counter() - t0)
        return result

    # -- commands ---------------------------------------------------------

    def command(self, kind: str, config: dict, label: str, layers=None) -> Command:
        """Run one CLI command in process; layers=None leaves it untraced."""
        from dualminkowski import cli
        from spans import Tracer

        cfg_path = os.path.join(self.out_dir, "configs", f"{label}.json")
        if not os.path.exists(cfg_path):
            with open(cfg_path, "w") as fh:
                json.dump(config, fh, indent=2)
            self.configs.append({"label": label, "command": kind,
                                 "config": config})
        self.attempted += 1
        out_root = os.path.join(self.out_dir, "cmd", f"{self.attempted:04d}-{label}")
        tracer = Tracer(layers) if layers is not None else None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            code = cli.main([kind, cfg_path, "--out", out_root])
            seconds = time.perf_counter() - t0
        runs = sorted(os.listdir(out_root)) if os.path.isdir(out_root) else []
        run_dir = os.path.join(out_root, runs[0]) if runs else out_root
        if code != 0:
            self.failures.append(f"{label}: exit {code}: "
                                 f"{sink.getvalue().strip()[-500:]}")
        return Command(code, run_dir, seconds, tracer)

    def record_layers(self, cmd: Command) -> None:
        """Add a traced command's self time per layer and keep its spans."""
        for name, own in cmd.tracer.self_times().items():
            self.add(name + "_s", own)
        for s in cmd.tracer.spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
        base = len(self.spans)
        self.spans.extend({**vars(s), "id": s.id + base,
                           "parent": None if s.parent is None else s.parent + base,
                           "command": cmd.run_dir.split(os.sep)[-2]}
                          for s in cmd.tracer.spans)

    def add(self, key: str, value: float) -> None:
        self.layer_sum[key] = self.layer_sum.get(key, 0.0) + value
        self.layer_n[key] = self.layer_n.get(key, 0) + 1

    def judge(self, label: str, problems: list[str]) -> None:
        """Count one failed operation if the output checks found problems."""
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)

    def pair(self, kind, config, label, check, counts):
        """Run a command untraced and, in a traced run, again traced.

        check(cmd) returns failure messages; counts(cmd) returns the
        deterministic counts the traced twin must reproduce. Returns the
        untraced and the traced command (None when not run or crashed).
        """
        from spans import LAYERS, SETUP_LAYER

        plain = self._checked(kind, config, label,
                              SETUP_LAYER if kind == "solve" else None, check)
        if not self.traced:
            return plain, None
        twin = self._checked(kind, config, label, LAYERS, check)
        if twin is not None:
            self.record_layers(twin)
        if plain is not None and twin is not None:
            self.overheads.append(twin.seconds - plain.seconds)
            try:
                untraced, traced = counts(plain), counts(twin)
                problems = [] if untraced == traced else [
                    f"traced counts {traced} != untraced {untraced}"]
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"counts unreadable: {exc}"]
            self.judge(label, problems)
        return plain, twin

    def _checked(self, kind, config, label, layers, check):
        try:
            cmd = self.command(kind, config, label, layers)
        except Exception:  # noqa: BLE001 - a crashed command is a failed op
            self.judge(label, [traceback.format_exc(limit=3)])
            return None
        try:
            problems = check(cmd)
        except Exception:  # noqa: BLE001 - unreadable output fails the op
            problems = [f"output unreadable: {traceback.format_exc(limit=3)}"]
        self.judge(label, problems)
        return cmd

    def loop(self, op, setup=None) -> None:
        """Closed loop: call op(index) until --seconds have passed (>= once).

        With setup given, one more set-up sample is taken before each op, so
        the set-up median spreads over the run like the command median.
        """
        start, k = time.perf_counter(), 0
        while k == 0 or time.perf_counter() - start < self.seconds:
            if setup is not None:
                self.setup(setup, 1)
            op(k)
            k += 1

    # -- result -----------------------------------------------------------

    def metrics(self) -> dict:
        import resource

        if not self.traced:
            return {
                "setup_s": _m(statistics.median(self.setup_times), "s"),
                "command_s": _m(statistics.median(self.command_times), "s"),
                "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0, "MB"),
            }
        out = {}
        for key, unit in PER_LAYER.items():
            n = self.layer_n.get(key, 0)
            out[key] = _m(self.layer_sum.get(key, 0.0) / n if n else 0.0, unit)
        out["trace.overhead_s"] = _m(
            statistics.mean(self.overheads) if self.overheads else 0.0, "s")
        return out


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# workloads


def _solve(run: Run, make_config, exact: bool) -> None:
    import configs
    from checks import (bump_failures, flagship_failures, radial_rms_error,
                        support_pairing)
    from dualminkowski.runio import read_body_file, resolve_problem

    config = make_config(run.seed)
    # two set-ups here; the command's own resolve_problem is the third sample
    spec, _, _ = run.setup(lambda: resolve_problem(config),
                           1 if run.traced else SETUP_REPEATS - 1)
    quality = {}

    def check(cmd: Command) -> list[str]:
        outcome = cmd.outcome
        if not exact:
            quality["residual"] = outcome["residual_orbit_l1"]
            return bump_failures(cmd.exit_code, outcome)
        body = read_body_file(os.path.join(cmd.run_dir, "body.txt"))
        rms = radial_rms_error(body, spec.grid, configs.exact_radius(config))
        quality.update(residual=outcome["residual_orbit_l1"], rms=rms)
        return flagship_failures(cmd.exit_code, outcome, rms,
                                 support_pairing(body, spec))

    def counts(cmd: Command):
        outcome = cmd.outcome
        return outcome["iterations"], outcome["convergence_reason"]

    def op(k: int) -> None:
        plain, twin = run.pair("solve", config, f"{run.workload}-{k}", check,
                               counts)
        if plain is not None:
            run.command_times.append(plain.seconds)
            run.setup_times.extend(s.end - s.start for s in plain.tracer.spans)
        if twin is not None:
            iters = twin.outcome["iterations"]
            minimize = twin.tracer.self_times().get("solver.minimize", 0.0)
            run.add("solver.iterations", iters)
            run.add("solver.s_per_iter", minimize / iters)
            run.add("solver.residual", quality.get("residual", 0.0))
            run.add("solver.radial_rms_err", quality.get("rms", 0.0))

    run.loop(op)


def _construct(run: Run) -> None:
    import numpy as np

    import configs
    from checks import body_failures, certified_share_failures, cone_failures
    from dualminkowski.bodies import shifted_ball_polytope
    from dualminkowski.runio import resolve_group
    from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes

    def setup():
        cfg = configs.construct_body(run.seed, 0)
        base = cfg["base"]
        group = resolve_group(cfg["group"], cfg["n"])
        body = shifted_ball_polytope(
            fibonacci_sphere_nodes(base["normal_count"]), base["radius"],
            np.asarray(base["center"], dtype=float))
        return group, body, build_grid(cfg["n"], cfg["probe_nodes"])

    run.setup(setup, SETUP_REPEATS)
    certified = {"yes": 0, "all": 0}

    def check(cmd: Command) -> list[str]:
        cert = cmd.read_json("certificate.json")
        certified["all"] += 1
        certified["yes"] += int(bool(cert["non_origin_symmetric"]))
        return body_failures(cmd.exit_code, cert)

    def counts(cmd: Command):
        outcome = cmd.outcome
        return outcome["facets"], outcome["non_origin_symmetric"]

    def op(k: int) -> None:
        plain, twin = run.pair("construct", configs.construct_body(run.seed, k),
                               f"body-{k}", check, counts)
        if plain is not None:
            run.command_times.append(plain.seconds)
        if twin is not None:
            run.add("constructions.pooled_constraints", twin.outcome["facets"])

    run.loop(op, setup)
    for i, cfg in enumerate(configs.dirichlet_voronoi_checks()):
        run.pair("construct", cfg, f"cone-{i}",
                 lambda cmd: cone_failures(cmd.exit_code, cmd.read_json("cone.json")),
                 lambda cmd: (cmd.outcome["covered"], cmd.outcome["max_interior_hits"]))
    problems = certified_share_failures(certified["yes"], certified["all"])
    if problems:
        run.failed += certified["all"] - certified["yes"]
        run.failures.extend(problems)
    if run.traced:
        run.add("constructions.certified_share",
                certified["yes"] / certified["all"] if certified["all"] else 0.0)


def _verify(run: Run) -> None:
    import configs
    from checks import bracket_failures
    from dualminkowski.sphere import build_grid

    def setup():
        cfg = configs.verify_bounds(run.seed, 0)
        return [build_grid(n, cfg["grid_nodes"], "monte-carlo", seed=cfg["seed"])
                for n in cfg["dimensions"]]

    run.setup(setup, SETUP_REPEATS)
    boxes = {"pass": 0, "all": 0}

    def rows(cmd: Command) -> list[dict]:
        with open(os.path.join(cmd.run_dir, "bounds.csv")) as fh:
            return list(csv.DictReader(fh))

    def check(cmd: Command) -> list[str]:
        table = rows(cmd)
        problems = bracket_failures(cmd.exit_code, table)
        boxes["all"] += len(table)
        boxes["pass"] += sum(int(r["pass"]) for r in table)
        return problems

    def counts(cmd: Command):
        outcome = cmd.outcome
        return outcome["cases"], outcome["failures"]

    def op(k: int) -> None:
        plain, _ = run.pair("verify-bounds", configs.verify_bounds(run.seed, k),
                            f"sweep-{k}", check, counts)
        if plain is not None:
            run.command_times.append(plain.seconds)

    run.loop(op, setup)
    if run.traced:
        run.add("bounds.bracket_pass_share",
                boxes["pass"] / boxes["all"] if boxes["all"] else 0.0)


def _workloads():
    import configs

    return {
        "solve-flagship": lambda run: _solve(run, configs.solve_flagship, True),
        "solve-bump": lambda run: _solve(run, configs.solve_bump, False),
        "construct-certify": _construct,
        "verify-bounds": _verify,
    }


WORKLOAD_NAMES = ("solve-flagship", "solve-bump", "construct-certify",
                  "verify-bounds")


# ---------------------------------------------------------------------------
# provenance and entry point


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain",
                 "--untracked-files=no"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha, dirty = None, None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"  # single-threaded baseline; set before numpy loads
    if not os.path.isfile(os.path.join(SRC, "dualminkowski", "__init__.py")):
        print(f"no dualminkowski sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dualminkowski
    if not os.path.abspath(dualminkowski.__file__).startswith(SRC + os.sep):
        print(f"dualminkowski imported from {dualminkowski.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # load every module now so the tracer finds them and set-up stays warm
    from dualminkowski import (bodies, bounds, cli, constructions,  # noqa: F401
                               groups, measures, runio, solver, sphere)

    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir = os.path.join(
        OUT, f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}")
    os.makedirs(os.path.join(out_dir, "configs"))
    run = Run(args, out_dir)
    started = time.perf_counter()
    _workloads()[args.workload](run)
    metrics = run.metrics()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    report = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "provenance": provenance(),
        "configs": run.configs,
        "replay": "dualminkowski <command> configs/<label>.json",
        "setup_times_s": run.setup_times,
        "command_times_s": run.command_times,
        "failures": run.failures,
        "span_calls": run.calls,
        "trace_overheads_s": run.overheads,
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    if run.traced:
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump(run.spans, fh)
    shutil.rmtree(os.path.join(out_dir, "cmd"), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

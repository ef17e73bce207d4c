"""Run configuration parsing, file formats, and manifests.

One JSON config file fully determines a run; flags only pick the command,
the config path, and the output root. Every output lands in a fresh run
directory and is referenced from the manifest, so a run can be reproduced
bit-for-bit from its manifest's resolved config (timestamps aside).
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .bodies import StarBody, SupportPolytope, vertex_enumeration
from .bounds import q_star
from .groups import (
    OrthogonalGroup,
    certify,
    enumerate_group,
    invariant_directions,
    standard_group,
)
from .sphere import build_grid
from .solver import (HypothesisError, ProblemSpec, SolverConfig, _finite,
                     _integer)

__all__ = [
    "ConfigError",
    "HypothesisError",
    "load_config",
    "resolve_group",
    "resolve_star_body",
    "resolve_density",
    "resolve_problem",
    "resolve_solver_config",
    "write_body_file",
    "read_body_file",
    "write_obj_mesh",
    "write_manifest",
    "write_csv",
    "new_run_directory",
]


class ConfigError(ValueError):
    """Schema problem: names the offending field and the reason."""


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, field: str, kind=None):
    if field not in cfg:
        raise ConfigError(f"missing required field {field!r}")
    value = cfg[field]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"field {field!r} must be {kind}, got {type(value)}")
    return value


def resolve_group(spec: dict, n: int) -> OrthogonalGroup:
    if "generators" in spec:
        gens = [np.asarray(g, dtype=float).reshape(n, n)
                for g in spec["generators"]]
        return enumerate_group(gens, max_order=int(spec.get("max_order", 2000)),
                               label=spec.get("label", "custom"))
    name = _require(spec, "name", str)
    params = {k: v for k, v in spec.items() if k != "name"}
    if name == "direct-sum":
        parts = [(p["name"], {k: v for k, v in p.items() if k != "name"})
                 for p in _require(spec, "parts", list)]
        params = {"parts": parts}
    try:
        return standard_group(name, n=n, **params)
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"group spec invalid: {exc}") from exc


def resolve_star_body(spec: dict, n: int) -> StarBody:
    kind = _require(spec, "kind", str)
    if kind == "ball":
        return StarBody.ball(n, float(spec.get("radius", 1.0)))
    if kind == "ellipsoid":
        axes = np.asarray(_require(spec, "half_axes", list), dtype=float)
        if axes.size != n:
            raise ConfigError(f"ellipsoid needs {n} half-axes")
        return StarBody.ellipsoid(axes)
    if kind == "body-file":
        body = read_body_file(_require(spec, "path", str))
        if body.dim != n:
            raise ConfigError("body file dimension mismatch")
        return StarBody.from_polytope(body, label=f"file:{spec['path']}")
    raise ConfigError(f"unknown star body kind {kind!r}")


def _checked(field: str, value, ok, want: str):
    """value, which must pass ok; otherwise a ConfigError names field."""
    if not ok(value):
        raise ConfigError(f"field {field!r} must be {want}, got {value!r}")
    return value


def _nonnegative(field: str, value) -> float:
    """value as a float; it must be a finite number >= 0, not a boolean."""
    return float(_checked(field, value, lambda x: _finite(x) and x >= 0,
                          "a finite number >= 0"))


def resolve_density(spec: dict, n: int):
    """Density builders: 'constant' and a symmetrizable bump family.

    Returns (density callable, label). Every field is checked here, so a bad
    one raises ConfigError naming it before any direction or grid work."""
    name = _require(spec, "density", str)
    if name == "constant":
        c = _nonnegative("value", _require(spec, "value"))
        if c <= 0:
            raise ConfigError("constant density must be positive")
        return lambda pts: np.full(pts.shape[0], c), f"constant {c}"
    if name == "cosine-bump":
        base = _nonnegative("base", spec.get("base", 1.0))
        amp = _nonnegative("amplitude", spec.get("amplitude", 0.5))
        power = _nonnegative("power", spec.get("power", 2.0))
        axis = _require(spec, "axis", list)
        if len(axis) != n or not all(map(_finite, axis)) or \
                not any(axis):
            raise ConfigError(f"field 'axis' must be {n} finite numbers, "
                              f"not all zero, got {axis!r}")
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)

        def density(pts):
            return base + amp * np.maximum(pts @ axis, 0.0) ** power

        return density, f"cosine-bump base={base} amp={amp} power={power}"
    raise ConfigError(f"unknown density {name!r}")


def resolve_solver_config(spec: dict) -> SolverConfig:
    if not isinstance(spec, dict):
        raise ConfigError("solver section must be an object")
    known = {f for f in SolverConfig.__dataclass_fields__}
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
    try:
        return SolverConfig(**spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _explicit_atoms(spec: dict, count: int) -> list:
    """measure.atoms, checked to be count finite nonnegative numbers."""
    atoms = spec["atoms"]
    if not isinstance(atoms, list) or len(atoms) != count or \
            not all(_finite(a) and a >= 0 for a in atoms):
        raise ConfigError(f"field 'measure.atoms' must be a list of {count} "
                          "finite nonnegative numbers, one per direction")
    return atoms


def resolve_problem(cfg: dict):
    """Resolve a solve config into (ProblemSpec, SolverConfig, extras).

    Schema problems raise ConfigError naming the field, before any direction
    work; the solver section is checked first, since it needs none of the
    problem data, and the grid is built among the checks, since only
    building it shows a scheme that does not fit n. The theorem's
    hypotheses are checked by ProblemSpec, which raises HypothesisError
    naming the violated condition (p outside (-q*, 0), a group with a fixed
    vector, a non-invariant Q) after the directions are packed and before
    any solver work.
    """
    solver_cfg = resolve_solver_config(cfg.get("solver", {}))
    n = _checked("n", _require(cfg, "n"), lambda x: _integer(x) and x >= 2,
                 "an integer >= 2")
    p = float(_checked("p", _require(cfg, "p"), _finite, "a finite number"))
    q = float(_checked("q", _require(cfg, "q"), _finite, "a finite number"))
    dir_spec = _checked("directions", cfg.get("directions", {}),
                        lambda x: isinstance(x, dict), "an object")
    count = _checked("directions.count", dir_spec.get("count", 642),
                     lambda x: _integer(x) and x >= 1, "an integer >= 1")
    dir_seed = _checked("directions.seed", dir_spec.get("seed", 0), _integer,
                        "an integer")
    grid_spec = _checked("grid", cfg.get("grid", {}),
                         lambda x: isinstance(x, dict), "an object")
    node_count = _checked("grid.node_count",
                          grid_spec.get("node_count", 20000),
                          lambda x: _integer(x) and x >= 8, "an integer >= 8")
    grid_seed = _checked("grid.seed", grid_spec.get("seed", 0), _integer,
                         "an integer")
    try:  # with the fields above checked, only the scheme can fail here
        grid = build_grid(n, node_count, grid_spec.get("scheme", ""),
                          grid_seed)
    except ValueError as exc:
        raise ConfigError(f"field 'grid.scheme': {exc}") from exc
    group = resolve_group(_require(cfg, "group", dict), n)
    q_body = resolve_star_body(cfg.get("q_body", {"kind": "ball"}), n)
    measure_spec = _require(cfg, "measure", dict)
    if "atoms" in measure_spec:
        measure = _explicit_atoms(measure_spec, count)
        label = "explicit atoms"
    else:
        measure, label = resolve_density(measure_spec, n)

    directions = invariant_directions(group, count, seed=dir_seed)
    spec = ProblemSpec.build(n, p, q, group, q_body, measure, directions,
                             grid, density_label=label)
    extras = {
        "s_exponent": spec.s_exponent,
        "q_star": q_star(q, n),
        "group_certificate": asdict(certify(group)),
        "density_label": label,
    }
    return spec, solver_cfg, extras


# ---------------------------------------------------------------------------
# file formats


def write_body_file(path: str, body: SupportPolytope) -> None:
    """Plain-text body format with fixed field order (diff-friendly).

    Layout: dimension, facet count, then one normal per line (full-precision
    floats), then one support number per line.
    """
    with open(path, "w") as fh:
        fh.write(f"n {body.dim}\n")
        fh.write(f"facets {body.facet_count}\n")
        fh.write("normals\n")
        for row in body.normals:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        fh.write("support\n")
        for h in body.support:
            fh.write(f"{h:.17g}\n")


def read_body_file(path: str) -> SupportPolytope:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        if not lines[0].startswith("n "):
            raise ValueError(f"first line must be 'n <dim>', got {lines[0]!r}")
        n = int(lines[0].split()[1])
        count = int(lines[1].split()[1])
        if lines[2] != "normals":
            raise ValueError(f"expected 'normals' header, got {lines[2]!r}")
        normals = np.array([[float(x) for x in ln.split()]
                            for ln in lines[3:3 + count]])
        if lines[3 + count] != "support":
            raise ValueError(f"expected 'support' header after {count} "
                             f"normals, got {lines[3 + count]!r}")
        support = np.array([float(ln) for ln in lines[4 + count:4 + 2 * count]])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed body file {path}: {exc}") from exc
    return SupportPolytope(dim=n, normals=normals, support=support)


def write_obj_mesh(path: str, body: SupportPolytope) -> None:
    """Triangle mesh of a three-dimensional body (Wavefront-style)."""
    if body.dim != 3:
        raise ConfigError("mesh export requires n = 3")
    from scipy.spatial import ConvexHull

    verts = vertex_enumeration(body)
    hull = ConvexHull(verts)
    with open(path, "w") as fh:
        for v in verts:
            fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for simplex, eq in zip(hull.simplices, hull.equations):
            a, b, c = simplex
            # orient outward: flip when the hull normal disagrees with the
            # triangle's right-hand normal
            tri_normal = np.cross(verts[b] - verts[a], verts[c] - verts[a])
            if np.dot(tri_normal, eq[:3]) < 0:
                a, b, c = a, c, b
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def new_run_directory(root: str, command: str) -> str:
    """Fresh, append-only run directory under the output root."""
    os.makedirs(root, exist_ok=True)
    stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S")
    for k in range(10000):
        candidate = os.path.join(root, f"{command}-{stamp}-{k:03d}")
        try:
            os.mkdir(candidate)
            return candidate
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a run directory")


def write_manifest(run_dir: str, command: str, resolved_config: dict,
                   outcome: dict, outputs: list[str],
                   started_at: float) -> str:
    manifest = {
        "tool_version": __version__,
        "command": command,
        "resolved_config": resolved_config,
        "outcome": outcome,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "started_at_unix": started_at,
        "finished_at_unix": time.time(),
        "wall_time_s": time.time() - started_at,
    }
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(x) for x in row) + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_facet_measure_csv(path: str, body: SupportPolytope,
                            atoms: np.ndarray) -> None:
    """One row per facet: normal components, support number, atom value."""
    header = [f"normal_{k}" for k in range(body.dim)] + ["support", "atom"]
    rows = [list(body.normals[i]) + [body.support[i], atoms[i]]
            for i in range(body.facet_count)]
    write_csv(path, header, rows)

"""Run configuration parsing, file formats, and manifests.

One JSON config file fully determines a run; flags only pick the command,
the config path, and the output root. Every output lands in a fresh run
directory and is referenced from the manifest, so a run can be reproduced
bit-for-bit from its manifest's resolved config (timestamps aside).

This module is the one that reads a config. Each command's resolve function
(resolve_problem, resolve_sweep, resolve_construct, resolve_export) checks
every field the command reads, through one field rule, before the command
makes its run directory.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import json
import os
import reprlib
import time
import traceback
from dataclasses import asdict

import numpy as np

from . import __version__
from .bodies import (StarBody, SupportPolytope, shifted_ball_polytope,
                     vertex_enumeration)
from .bounds import q_star
from .constructions import dirichlet_voronoi_cone
from .groups import (
    MAX_ORDER,
    OrthogonalGroup,
    enumerate_group,
    invariant_directions,
    standard_group,
)
from .sphere import build_grid, fibonacci_sphere_nodes
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
    "resolve_sweep",
    "resolve_construct",
    "resolve_export",
    "write_body_file",
    "read_body_file",
    "write_obj_mesh",
    "write_manifest",
    "write_error",
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


_REQUIRED = object()


def _field(cfg: dict, name: str, ok, want: str, default=_REQUIRED):
    """The value of a config field, or default when the field is absent.

    cfg is the section that holds the field, keyed by the last part of the
    dotted name. A missing required field, or a value that fails ok, raises
    ConfigError naming the field (and what it must be)."""
    key = name.rpartition(".")[2]
    if key in cfg:
        value = cfg[key]
    elif default is _REQUIRED:
        raise ConfigError(f"missing required field {name!r}")
    else:
        value = default
    if not ok(value):
        raise ConfigError(
            f"field {name!r} must be {want}, got {reprlib.repr(value)}")
    return value


# Field tests. Booleans are neither integers nor numbers; solver._integer and
# solver._finite are the one integer test and the one number test.


def _is(kind):
    """Test for an instance of kind."""
    return lambda x: isinstance(x, kind)


def _positive(x) -> bool:
    return _finite(x) and x > 0


def _at_least(low: int):
    """Test for an integer >= low."""
    return lambda x: _integer(x) and x >= low


def _numbers(x, count: int) -> bool:
    """x is a list of count finite numbers."""
    return isinstance(x, list) and len(x) == count and all(map(_finite, x))


def _nonempty(x, ok) -> bool:
    """x is a non-empty list whose entries all pass ok."""
    return isinstance(x, list) and len(x) > 0 and all(map(ok, x))


def _matrix(x, n: int) -> bool:
    """x is an n x n matrix: n rows of n finite numbers, or n * n of them
    in row-major order."""
    return _numbers(x, n * n) or (isinstance(x, list) and len(x) == n
                                  and all(_numbers(row, n) for row in x))


def _known(spec: dict, prefix: str, keys: set) -> None:
    """Raise ConfigError naming the fields of a section outside keys."""
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ConfigError(f"unknown {prefix} fields: {unknown}")


# The integer parameter of each catalogue group ("cyclic" takes its order,
# the others their dimension, which defaults to the config's n at the top
# level and must be given by each part of a direct sum), and the factors
# whose product is the number of matrices its constructor builds: (m+1)! for
# both simplex groups (the rotations are kept from the full group), 2^m m!
# for the cube rotations, the order of a cyclic group.
_GROUP_PARAM = {
    "simplex-symmetry": ("m", lambda m: range(2, m + 2)),
    "simplex-rotation": ("m", lambda m: range(2, m + 2)),
    "cube-rotation": ("m", lambda m: itertools.chain(
        itertools.repeat(2, m), range(2, m + 1))),
    "cyclic": ("order", lambda order: [order]),
    "negation": ("n", lambda n: [2]),
}


def _matrices(name: str, factors, value) -> int:
    """The product of factors, the number of matrices a catalogue group
    builds; above MAX_ORDER it raises ConfigError naming the field that
    holds value, before any matrix is built. The product stops at the cap,
    so a huge parameter costs no time."""
    total = 1
    for factor in factors:
        total *= factor
        if total > MAX_ORDER:
            raise ConfigError(
                f"field {name!r} must give a group built from at most "
                f"{MAX_ORDER} matrices, got {reprlib.repr(value)}")
    return total


def _catalogue(spec: dict, prefix: str, n: int | None) -> tuple:
    """(name, standard_group parameters, matrices built) of a catalogue
    group section, its fields and its size checked; n is None inside a
    direct sum."""
    name = _field(spec, f"{prefix}.name", _is(str), "a string")
    if name == "direct-sum":
        _known(spec, prefix, {"name", "parts"})
        parts = _field(spec, f"{prefix}.parts",
                       lambda ps: _nonempty(ps, _is(dict)),
                       "a non-empty list of group objects")
        parts = [_catalogue(part, f"{prefix}.parts[{i}]", None)
                 for i, part in enumerate(parts)]
        size = _matrices(f"{prefix}.parts", (s for _, _, s in parts),
                         spec["parts"])
        return name, {"parts": [(nm, ps) for nm, ps, _ in parts]}, size
    if name not in _GROUP_PARAM:  # standard_group names the unknown group
        return name, {}, 1
    key, factors = _GROUP_PARAM[name]
    _known(spec, prefix, {"name", key})
    default = _REQUIRED if n is None or key == "order" else n
    value = _field(spec, f"{prefix}.{key}", _integer, "an integer", default)
    return name, {key: value}, _matrices(f"{prefix}.{key}", factors(value),
                                         value)


def resolve_group(spec: dict, n: int) -> OrthogonalGroup:
    """The group of a config's group section; it must act on R^n."""
    if "generators" in spec:
        _known(spec, "group", {"generators", "max_order", "label"})
        gens = _field(spec, "group.generators",
                      lambda gs: _nonempty(gs, lambda g: _matrix(g, n)),
                      f"a non-empty list of {n} x {n} matrices of finite "
                      "numbers")
        max_order = _field(spec, "group.max_order",
                           lambda x: _integer(x) and 1 <= x <= MAX_ORDER,
                           f"an integer in [1, {MAX_ORDER}]", 2000)
        label = _field(spec, "group.label", _is(str), "a string", "custom")
        try:
            group = enumerate_group(
                [np.asarray(g, dtype=float).reshape(n, n) for g in gens],
                max_order=max_order, label=label)
        except ValueError as exc:
            raise ConfigError(f"field 'group.generators': {exc}") from exc
    else:
        name, params, _ = _catalogue(spec, "group", n)
        try:
            group = standard_group(name, **params)
        except ValueError as exc:
            raise ConfigError(f"group spec invalid: {exc}") from exc
    if group.dim != n:
        raise ConfigError(f"field 'n' must be {group.dim}, the dimension of "
                          f"the group, got {n}")
    return group


def resolve_star_body(spec: dict, n: int) -> StarBody:
    """Q from a solve config's q_body section."""
    kind = _field(spec, "q_body.kind", _is(str), "a string")
    if kind == "ball":
        _known(spec, "q_body", {"kind", "radius"})
        return StarBody.ball(n, float(_field(spec, "q_body.radius", _positive,
                                             "a finite number > 0", 1.0)))
    if kind == "ellipsoid":
        _known(spec, "q_body", {"kind", "half_axes"})
        return StarBody.ellipsoid(_field(
            spec, "q_body.half_axes",
            lambda axes: _numbers(axes, n) and min(axes) > 0,
            f"{n} finite numbers > 0"))
    if kind == "body-file":
        _known(spec, "q_body", {"kind", "path"})
        body = _body_file(spec, "q_body.path")
        if body.dim != n:
            raise ConfigError(f"field 'q_body.path': the body file has "
                              f"n = {body.dim}, not {n}")
        return StarBody.from_polytope(body)
    raise ConfigError(f"field 'q_body.kind': unknown star body kind {kind!r}")


def _body_file(cfg: dict, name: str) -> SupportPolytope:
    """The body in the file that a config field names; a file that cannot
    be read, or holds no valid body, raises ConfigError naming the field."""
    path = _field(cfg, name, _is(str), "a string")
    try:
        return read_body_file(path)
    except OSError as exc:
        raise ConfigError(f"field {name!r}: cannot read body file "
                          f"{path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: {exc}") from exc


def resolve_density(spec: dict, n: int):
    """Density builders: 'constant' and a symmetrizable bump family.

    Returns (density callable, label)."""
    name = _field(spec, "density", _is(str), "a string")
    if name == "constant":
        _known(spec, "measure", {"density", "value"})
        c = float(_field(spec, "value", _positive, "a finite number > 0"))
        return lambda pts: np.full(pts.shape[0], c), f"constant {c}"
    if name == "cosine-bump":
        _known(spec, "measure", {"density", "base", "amplitude", "power",
                                 "axis"})
        base, amp, power = (
            float(_field(spec, key, lambda x: _finite(x) and x >= 0,
                         "a finite number >= 0", default))
            for key, default in (("base", 1.0), ("amplitude", 0.5),
                                 ("power", 2.0)))
        axis = np.asarray(_field(spec, "axis",
                                 lambda a: _numbers(a, n) and any(a),
                                 f"{n} finite numbers, not all zero"),
                          dtype=float)
        axis = axis / np.linalg.norm(axis)

        def density(pts):
            return base + amp * np.maximum(pts @ axis, 0.0) ** power

        return density, f"cosine-bump base={base} amp={amp} power={power}"
    raise ConfigError(f"field 'density': unknown density {name!r}")


def resolve_solver_config(spec: dict) -> SolverConfig:
    """SolverConfig from a solve config's solver section."""
    _known(spec, "solver", set(SolverConfig.__dataclass_fields__))
    try:
        return SolverConfig(**spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_problem(cfg: dict):
    """Resolve a solve config into (ProblemSpec, SolverConfig, extras).

    extras holds the problem entries of the run manifest's outcome and the
    export_mesh flag. Schema problems, a field that the command does not read
    among them, raise ConfigError naming the field, before any direction work;
    the solver section is checked first, since it needs none of the problem
    data, and the grid is built among the checks, since only building it shows
    a scheme that does not fit n. The theorem's hypotheses are checked by
    ProblemSpec, which raises HypothesisError naming the violated condition (p
    outside (-q*, 0), a group with a fixed vector, a non-invariant Q) after the
    directions are packed and before any solver work.
    """
    _known(cfg, "top-level", {"n", "p", "q", "group", "q_body", "directions",
                              "grid", "measure", "solver", "export_mesh"})
    solver_cfg = resolve_solver_config(
        _field(cfg, "solver", _is(dict), "an object", {}))
    n = _field(cfg, "n", _at_least(2), "an integer >= 2")
    p = float(_field(cfg, "p", _finite, "a finite number"))
    q = float(_field(cfg, "q", _finite, "a finite number"))
    export_mesh = _field(cfg, "export_mesh", _is(bool), "true or false", False)
    dir_spec = _field(cfg, "directions", _is(dict), "an object", {})
    _known(dir_spec, "directions", {"count", "seed"})
    count = _field(dir_spec, "directions.count", _at_least(1),
                   "an integer >= 1", 642)
    dir_seed = _field(dir_spec, "directions.seed", _integer, "an integer", 0)
    grid_spec = _field(cfg, "grid", _is(dict), "an object", {})
    _known(grid_spec, "grid", {"node_count", "seed", "scheme"})
    node_count = _field(grid_spec, "grid.node_count", _at_least(8),
                        "an integer >= 8", 20000)
    grid_seed = _field(grid_spec, "grid.seed", _integer, "an integer", 0)
    scheme = _field(grid_spec, "grid.scheme", _is(str), "a string", "")
    try:  # with the fields above checked, only the scheme can fail here
        grid = build_grid(n, node_count, scheme, grid_seed)
    except ValueError as exc:
        raise ConfigError(f"field 'grid.scheme': {exc}") from exc
    group = resolve_group(_field(cfg, "group", _is(dict), "an object"), n)
    q_body = resolve_star_body(
        _field(cfg, "q_body", _is(dict), "an object", {"kind": "ball"}), n)
    measure_spec = _field(cfg, "measure", _is(dict), "an object")
    if "atoms" in measure_spec:
        _known(measure_spec, "measure", {"atoms"})
        measure = _field(measure_spec, "measure.atoms",
                         lambda a: _numbers(a, count) and min(a) >= 0,
                         f"a list of {count} finite nonnegative numbers, one "
                         "per direction")
        label = "explicit atoms"
    else:
        measure, label = resolve_density(measure_spec, n)

    directions = invariant_directions(group, count, seed=dir_seed)
    spec = ProblemSpec.build(n, p, q, group, q_body, measure, directions,
                             grid)
    extras = {
        "s_exponent": spec.s_exponent,
        "q_star": q_star(q, n),
        "group_certificate": asdict(spec.certificate),
        "density_label": label,
        "export_mesh": export_mesh,
    }
    return spec, solver_cfg, extras


def resolve_sweep(cfg: dict) -> tuple:
    """The verify-bounds settings with their defaults: (dimensions,
    q_values, boxes_per_case, (lo, hi), seed)."""
    dims = _field(cfg, "dimensions", lambda ns: _nonempty(ns, _at_least(2)),
                  "a non-empty list of integers >= 2", [2, 3, 4])
    q_values = _field(cfg, "q_values", lambda qs: _nonempty(qs, _positive),
                      "a non-empty list of numbers > 0",
                      [0.5, 1, 1.5, 2, 2.5, 3, 3.5])
    per_case = _field(cfg, "boxes_per_case", _at_least(1), "an integer >= 1",
                      100)
    lo, hi = _field(cfg, "axis_range",
                    lambda r: _numbers(r, 2) and 0 < r[0] <= r[1],
                    "[lo, hi] with 0 < lo <= hi", [0.3, 30.0])
    seed = _field(cfg, "seed", _at_least(0), "an integer >= 0", 0)
    return (dims, [float(q) for q in q_values], per_case,
            (float(lo), float(hi)), seed)


_INTERSECTIONS = ("orbit-intersection-min", "orbit-intersection-max")


def resolve_construct(cfg: dict) -> tuple:
    """Resolve a construct config into (construction, group, seed, inputs).

    inputs is (base body, probe grid or None) for the orbit intersections,
    whose probe grid is built only for n = 3, and (cone, sample count) for
    "dirichlet-voronoi"; an anchor that is not generic for the group is a
    config error."""
    kind = _field(cfg, "construction", _is(str), "a string", _INTERSECTIONS[0])
    if kind not in _INTERSECTIONS + ("dirichlet-voronoi",):
        raise ConfigError(
            f"field 'construction': unknown construction {kind!r}")
    if kind in _INTERSECTIONS:
        base_spec = _field(cfg, "base", _is(dict), "an object", {})
        if _field(base_spec, "base.kind", _is(str), "a string",
                  "shifted-ball") != "shifted-ball":
            raise ConfigError("field 'base.kind': only the shifted-ball base "
                              "is built in")
    n = _field(cfg, "n", _at_least(2), "an integer >= 2", 3)
    group = resolve_group(_field(cfg, "group", _is(dict), "an object"), n)
    seed = _field(cfg, "seed", _at_least(0), "an integer >= 0", 0)
    if kind == "dirichlet-voronoi":
        anchor = _field(cfg, "anchor", lambda a: _numbers(a, n) and any(a),
                        f"{n} finite numbers, not all zero",
                        [1.0] + [0.31] * (n - 1))
        samples = _field(cfg, "samples", _at_least(1), "an integer >= 1",
                         10000)
        try:
            cone = dirichlet_voronoi_cone(group, anchor)
        except ValueError as exc:
            raise ConfigError(f"field 'anchor': {exc}") from exc
        return kind, group, seed, (cone, samples)
    count = _field(base_spec, "base.normal_count", _at_least(8),
                   "an integer >= 8", 160)
    radius = float(_field(base_spec, "base.radius", _positive,
                          "a finite number > 0", 2.0))
    center = _field(base_spec, "base.center",
                    lambda c: _numbers(c, n) and np.linalg.norm(c) < radius,
                    f"{n} finite numbers of norm below base.radius {radius}",
                    [0.5] + [0.0] * (n - 1))
    probe_nodes = _field(cfg, "probe_nodes", _at_least(8), "an integer >= 8",
                         800)
    if n == 3:
        dirs = fibonacci_sphere_nodes(count)
    else:
        dirs = build_grid(n, count, "monte-carlo" if n != 2 else "",
                          seed=seed + 1).nodes
    base = shifted_ball_polytope(dirs, radius,
                                 np.asarray(center, dtype=float))
    grid = build_grid(n, probe_nodes, seed=seed + 2) if n == 3 else None
    return kind, group, seed, (base, grid)


def resolve_export(cfg: dict) -> tuple:
    """Resolve an export config into (body, prune, mesh)."""
    body = _body_file(cfg, "body_file")
    prune = _field(cfg, "prune", _is(bool), "true or false", True)
    mesh = _field(cfg, "mesh", _is(bool), "true or false", False)
    if mesh and body.dim != 3:
        raise ConfigError(f"field 'mesh': mesh export requires n = 3, got a "
                          f"body with n = {body.dim}")
    return body, prune, mesh


# ---------------------------------------------------------------------------
# file formats


def write_body_file(path: str, body: SupportPolytope) -> None:
    """Plain-text body format with fixed field order (diff-friendly).

    Layout: dimension, facet count, then one normal per line (full-precision
    floats), then one support number per line.
    """
    # %-formatting the Python floats of tolist() writes the bytes of
    # f"{x:.17g}" on each numpy scalar; one format and one write a section
    row = " ".join(["%.17g"] * body.dim) + "\n"
    count = body.facet_count
    with open(path, "w") as fh:
        fh.write(f"n {body.dim}\nfacets {count}\nnormals\n")
        fh.write(row * count % tuple(body.normals.ravel().tolist()))
        fh.write("support\n")
        fh.write("%.17g\n" * count % tuple(body.support.tolist()))


def read_body_file(path: str) -> SupportPolytope:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        if not lines[0].startswith("n "):
            raise ValueError(f"first line must be 'n <dim>', got {lines[0]!r}")
        n = int(lines[0].split()[1])
        if not lines[1].startswith("facets "):
            raise ValueError(
                f"second line must be 'facets <count>', got {lines[1]!r}")
        count = int(lines[1].split()[1])
        if lines[2] != "normals":
            raise ValueError(f"expected 'normals' header, got {lines[2]!r}")
        normals = np.array([[float(x) for x in ln.split()]
                            for ln in lines[3:3 + count]])
        if lines[3 + count] != "support":
            raise ValueError(f"expected 'support' header after {count} "
                             f"normals, got {lines[3 + count]!r}")
        rest = lines[4 + count:]
        if len(rest) != count:
            raise ValueError(f"expected {count} support numbers after the "
                             f"'support' header, got {len(rest)} lines")
        support = np.array([float(ln) for ln in rest])
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
    finished_at = time.time()
    manifest = {
        "tool_version": __version__,
        "command": command,
        "resolved_config": resolved_config,
        "outcome": outcome,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "started_at_unix": started_at,
        "finished_at_unix": finished_at,
        "wall_time_s": finished_at - started_at,
    }
    path = os.path.join(run_dir, "manifest.json")
    write_json(path, manifest)
    return path


def write_error(run_dir: str, command: str, resolved_config: dict,
                exc: BaseException) -> None:
    """error.json in the run directory of a failed command: the command,
    its config, the error and its traceback."""
    write_json(os.path.join(run_dir, "error.json"), {
        "tool_version": __version__,
        "command": command,
        "resolved_config": resolved_config,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(traceback.format_exception(exc)),
    })


def write_json(path: str, obj) -> None:
    """obj as strict JSON (see _strict_json), indented, keys sorted."""
    with open(path, "w") as fh:
        json.dump(_strict_json(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _strict_json(obj):
    """obj in plain Python types, non-finite floats as the strings "inf",
    "-inf" and "nan": strict JSON has no Infinity or NaN token."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict_json(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


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

"""Source-level guards over the package modules."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import pathlib
import re

import dualminkowski

PACKAGE = pathlib.Path(dualminkowski.__file__).parent


def test_no_assert_statements():
    """Checks must raise errors that survive python -O, which strips assert."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# The only scipy names the package may import: Qhull's hull, halfspace
# intersection and error. Nearest neighbours and linear programs are the
# package's own (sphere.nearest_within, the vertex route of support_profile).
SCIPY_NAMES = {"scipy.spatial.ConvexHull",
               "scipy.spatial.HalfspaceIntersection",
               "scipy.spatial.QhullError"}


def test_scipy_only_for_qhull():
    """Every scipy import in the package names one of SCIPY_NAMES; an
    import of a scipy module as a whole counts as its own name."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level and \
                    node.module.split(".")[0] == "scipy":
                found |= {f"{node.module}.{alias.name}"
                          for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names
                          if alias.name.split(".")[0] == "scipy"}
    assert found
    assert sorted(found - SCIPY_NAMES) == []


def _bound_names(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_no_unused_module_imports():
    """Every module-level import is used in its module or re-exported
    through __all__."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        found += [f"{path.name}:{node.lineno} {name}"
                  for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for name in _bound_names(node) if name not in used]
    assert found == []


def test_every_definition_is_referenced():
    """Every function and class defined in the package is named somewhere
    besides its own def, in the package, its tests or its benchmark."""
    root = PACKAGE.parents[1]
    texts = [path.read_text()
             for folder in (PACKAGE, root / "tests", root / "perfbench")
             for path in sorted(folder.rglob("*.py"))]
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                defined[node.name] = defined.get(node.name, 0) + 1
    unused = sorted(
        name for name, count in defined.items()
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts)
        <= count)
    assert unused == []


def _public_names():
    """Every public function, class, method and dataclass field the package
    defines, as {name: ["module.Class.name", ...]}."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            members = [(node.name, node.name)] \
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                members += [(item.name, f"{node.name}.{item.name}")
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
                members += [(item.target.id, f"{node.name}.{item.target.id}")
                            for item in node.body
                            if isinstance(item, ast.AnnAssign)]
            for name, dotted in members:
                if not name.startswith("_"):
                    found.setdefault(name, []).append(f"{path.stem}.{dotted}")
    return found


def _referenced_names(paths):
    """The names and import aliases, and the attribute names, the files
    refer to, as two sets. A dataclass field's own declaration is not a
    reference."""
    names, attributes = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        declared = {id(item.target) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.AnnAssign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in declared:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def _layers():
    """The benchmark's LAYERS list: (module, attribute path, span name)."""
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS list in {path}")


def test_every_public_name_has_a_caller():
    """Every public function, method and dataclass field of the package is
    referred to by the program (the package or its benchmark) or by the
    acceptance suite. Unit tests alone do not count: what only they call
    moves into tests/ or goes. Only code counts, not docstrings or strings,
    apart from the attribute paths the benchmark traces by name. A module
    level function or class counts only by its name or an import of it, a
    method or field only by attribute use (obj.name), so a local variable
    that shares a method's name does not count for it."""
    root = PACKAGE.parents[1]
    program = sorted(PACKAGE.glob("*.py")) + \
        sorted((root / "perfbench").glob("*.py")) + \
        [root / "tests" / "test_acceptance.py"]
    names, attributes = _referenced_names(program)
    traced = {part for _, dotted, _ in _layers() for part in dotted.split(".")}
    unused = sorted(
        dotted for name, where in _public_names().items() for dotted in where
        if name not in traced and name not in
        (names if dotted.count(".") == 1 else attributes))
    assert unused == []


def test_every_traced_name_resolves():
    """Every attribute path the benchmark traces, a function or
    "Class.method", is defined in its module or class, where the tracer
    looks it up: a change that removes one fails here, not in a traced
    benchmark run."""
    missing = []
    for module, dotted, _ in _layers():
        owner = importlib.import_module(module)
        *classes, name = dotted.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{dotted}")
    assert missing == []


def test_runio_alone_handles_config():
    """runio is the one module that reads a config: no other module raises
    ConfigError or imports a private runio name."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[-1] == "runio":
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
            if isinstance(node, ast.Raise) and path.name != "runio.py":
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                    found.append(f"{path.name}:{node.lineno} raises "
                                 "ConfigError")
    assert found == []


# The package's import graph: each module and the package modules it imports,
# at module level or inside a function ("__init__" is the package itself). A
# new cross-module import needs an edit here.
IMPORTS = {
    "__init__": {"sphere"},
    "bodies": {"groups", "sphere"},
    "bounds": {"bodies", "measures", "sphere"},
    "cli": {"bodies", "bounds", "constructions", "groups", "measures", "runio",
            "solver", "sphere"},
    "constructions": {"bodies", "groups", "sphere"},
    "groups": {"sphere"},
    "measures": {"bodies", "sphere"},
    "runio": {"__init__", "bodies", "bounds", "constructions", "groups",
              "solver", "sphere"},
    "solver": {"bodies", "bounds", "groups", "measures", "sphere"},
    "sphere": set(),
}


def _package_imports(path):
    """The package modules a module imports; an absolute import of the
    package keeps its full name, so it never matches IMPORTS."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(node.module or "__init__")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            found |= {name for name in names
                      if name.split(".")[0] == "dualminkowski"}
    return found


def test_import_graph():
    """The package's modules import one another exactly along IMPORTS."""
    found = {path.stem: _package_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found == IMPORTS


# Every defaulted parameter ("module.function(param)") and defaulted
# dataclass init field ("module.Class.field") of the package. A tuning value
# that no caller sets is a named module constant instead, so a new default
# needs an edit here.
KNOBS = {
    "bodies.SupportPolytope.h_floor",
    "bodies.RadialKernel.profile(want_idx)",
    "bodies.is_invariant(grid)",
    "bodies.is_invariant(active)",
    "bodies.ball_polytope(radius)",
    "bodies.StarBody.ball(radius)",
    "cli.main(argv)",
    "constructions.certify_asymmetry(grid)",
    "constructions.certify_asymmetry(invariance)",
    "constructions.certify_asymmetry(active)",
    "constructions.radial_extremum_is_unique(mode)",
    "constructions.radial_extremum_is_unique(grid)",
    "constructions.random_generic_rotation(seed)",
    "constructions.orbit_intersection_body(seed)",
    "constructions.orbit_intersection_body(grid)",
    "constructions.orbit_intersection_body_circum(seed)",
    "constructions.orbit_intersection_body_circum(grid)",
    "constructions.fundamental_domain_check(sample_count)",
    "constructions.fundamental_domain_check(seed)",
    "groups.OrthogonalGroup.label",
    "groups.enumerate_group(max_order)",
    "groups.enumerate_group(label)",
    "groups.standard_group(n)",
    "groups.invariant_directions(seed)",
    "runio._field(default)",
    "solver.SolverConfig.max_iters",
    "solver.SolverConfig.gradient_tolerance",
    "solver.SolutionReport.atoms",
    "solver.SolutionReport.euler_lagrange_gap",
    "solver.minimize_entropy(config)",
    "solver.minimize_entropy(initial_orbit_values)",
    "solver.solve_problem(config)",
    "sphere.first_of_clusters(group_of)",
    "sphere.SphericalGrid.seed",
    "sphere.build_grid(scheme)",
    "sphere.build_grid(seed)",
}


def _defaulted(prefix, function):
    return {f"{prefix}({name})"
            for name, param in inspect.signature(function).parameters.items()
            if param.default is not inspect.Parameter.empty}


def _knobs(module) -> set:
    """Defaulted parameters of the functions and methods a module defines,
    and defaulted init fields of its dataclasses; a dataclass's generated
    __init__ repeats its fields and is skipped."""
    short = module.__name__.rpartition(".")[2]
    found = set()
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found |= _defaulted(f"{short}.{name}", obj)
        if not inspect.isclass(obj):
            continue
        is_dataclass = dataclasses.is_dataclass(obj)
        if is_dataclass:
            found |= {f"{short}.{name}.{f.name}"
                      for f in dataclasses.fields(obj)
                      if f.init and (f.default is not dataclasses.MISSING or
                                     f.default_factory
                                     is not dataclasses.MISSING)}
        for attr, member in vars(obj).items():
            member = getattr(member, "__func__", member)  # static, class
            if inspect.isfunction(member) and \
                    not (is_dataclass and attr == "__init__"):
                found |= _defaulted(f"{short}.{name}.{attr}", member)
    return found


def test_knob_inventory():
    """No default without a caller: the package's defaulted parameters and
    init fields are exactly KNOBS."""
    modules = [importlib.import_module(f"dualminkowski.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"]
    found = set().union(*map(_knobs, modules))
    assert sorted(found - KNOBS) == []
    assert sorted(KNOBS - found) == []


# The products against a transpose that bodies, groups, measures and sphere
# form outside product_blocks, each with the reason it stays. Every other
# dense product goes through product_blocks.
WHOLE_PRODUCTS = {
    # the helper itself
    "sphere.product_blocks": "rows[start:stop] @ cols.T",
    # n x n linear maps applied to points: no node-facet product
    "bodies.StarBody.transformed.rho": "pts @ phi_inv.T",
    "bodies.StarBody.is_invariant": "probe.nodes @ g.T",
    "groups.symmetrize_density.averaged": "pts @ g.T",
    "measures.transform_polytope": "body.normals @ phi_inv_t.T",
}


def _transpose_products(path):
    """{"module.qualified.function": source} of every a @ b.T in a module."""
    text = path.read_text()
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
                and isinstance(node.right, ast.Attribute) \
                and node.right.attr == "T":
            name = ".".join([path.stem] + scope)
            if name in found:
                raise AssertionError(f"two products against a transpose in "
                                     f"{name}")
            found[name] = ast.get_source_segment(text, node)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text, str(path)), [])
    return found


def test_dense_products_are_blocked():
    """bodies, groups, measures and sphere form no product against a
    transpose outside product_blocks but those WHOLE_PRODUCTS names: a new
    whole node-facet, facet-vertex, image or probe product fails here."""
    found = {}
    for stem in ("bodies", "groups", "measures", "sphere"):
        found.update(_transpose_products(PACKAGE / f"{stem}.py"))
    assert found == WHOLE_PRODUCTS


def _numeric_constants():
    """{"module.NAME": value} of every public numeric module constant of
    the package outside cli, whose constants are its exit codes."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            if name.startswith("_") or not name.isupper():
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            if type(value) in (int, float):
                found[f"{path.stem}.{name}"] = value
    return found


def _constants_table():
    """{"module.NAME": value} of the rows of the README's constants table;
    a row's later names belong to the module of its first."""
    lines = (PACKAGE.parents[1] / "README.md").read_text().splitlines()
    start = lines.index("  | constant | value | rule it governs |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("  |"),
                               lines[start:])
    found = {}
    for line in rows:
        names, values = (re.findall(r"`([^`]+)`", cell)
                         for cell in line.split("|")[1:3])
        module = names[0].partition(".")[0]
        for name, value in zip(names, values, strict=True):
            found[f"{module}.{name.rpartition('.')[2]}"] = \
                ast.literal_eval(value)
    return found


def test_constants_table_matches_source():
    """Every row of the README's constants table names a public numeric
    module constant with the value the row gives, and every such constant
    outside cli has a row."""
    table, constants = _constants_table(), _numeric_constants()
    assert sorted(set(table) - set(constants)) == []
    assert sorted(set(constants) - set(table)) == []
    assert table == constants

"""Source-level guards over the package modules."""

import ast
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

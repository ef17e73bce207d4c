"""In-memory spans around the public functions of the dualminkowski modules.

The benchmark drives the real CLI. To see inside a command without touching
the program, a Tracer temporarily replaces each traced function with a thin
wrapper in every loaded dualminkowski module that refers to it, so calls made
through `from .x import f` bindings are caught as well. Spans (name, start,
end, parent) stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, attribute path, span name). Methods are given as "Class.method".
LAYERS = [
    ("dualminkowski.runio", "resolve_problem", "runio.resolve_problem"),
    ("dualminkowski.groups", "standard_group", "groups.enumerate"),
    ("dualminkowski.groups", "enumerate_group", "groups.enumerate"),
    ("dualminkowski.groups", "invariant_directions", "groups.invariant_directions"),
    ("dualminkowski.groups", "orbits", "groups.orbits"),
    ("dualminkowski.sphere", "build_grid", "sphere.build_grid"),
    ("dualminkowski.sphere", "stable_sum", "sphere.stable_sum"),
    ("dualminkowski.solver", "ProblemSpec.build", "solver.spec_build"),
    ("dualminkowski.solver", "minimize_entropy", "solver.minimize"),
    ("dualminkowski.solver", "euler_lagrange_check", "solver.euler_lagrange"),
    ("dualminkowski.solver", "assemble_solution", "solver.assemble"),
    ("dualminkowski.measures", "lp_dual_curvature_measure",
     "measures.lp_dual_curvature_measure"),
    ("dualminkowski.runio", "write_body_file", "runio.write"),
    ("dualminkowski.runio", "write_csv", "runio.write"),
    ("dualminkowski.runio", "write_facet_measure_csv", "runio.write"),
    ("dualminkowski.runio", "write_manifest", "runio.write"),
    ("dualminkowski.bodies", "is_invariant", "bodies.is_invariant"),
    ("dualminkowski.bodies", "StarBody.radial", "bodies.star_radial"),
    ("dualminkowski.constructions", "orbit_intersection_body",
     "constructions.orbit_intersection_body"),
    ("dualminkowski.constructions", "fundamental_domain_check",
     "constructions.fundamental_domain_check"),
    ("dualminkowski.bounds", "verify_box", "bounds.verify_box"),
    ("dualminkowski.bounds", "box_bounds", "bounds.box_bounds"),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records nested spans while installed; install() and uninstall() pair."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _SpanContext(self, name)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in self.layers:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("dualminkowski"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s.end - s.start) - child.get(s.id, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append(Span(self.index, self.name, time.perf_counter(), 0.0,
                            parent))
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index].end = time.perf_counter()
        t._stack.pop()
        return False

# the untraced solve times its own set-up with this one span
SETUP_LAYER = LAYERS[:1]

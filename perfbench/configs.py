"""Seeded generator of the plain-CLI configs each workload runs.

Seed 0 gives the canonical configs. Other seeds change the inputs in ways
whose exact answer is known and whose solve path keeps the same length, so
that time to solution stays comparable across seeds:

- the solves scale the density by a factor t drawn log-uniformly from
  [1/2, 2], which scales the exact solution by t^(1/(q-p)) and leaves the
  normalised minimisation unchanged; the bump also turns its axis by a
  seed-chosen element of the symmetry group, which leaves the symmetrised
  density unchanged;
- construct-certify offsets its rotation seeds by 1000 * seed;
- verify-bounds draws its box axes and Monte-Carlo grid seed from
  1000 * seed + the command index.
"""

from __future__ import annotations

import math

import numpy as np

GROUP = {"name": "simplex-symmetry", "m": 3}
P, Q, N = -1.0, 2.0, 3
DENSITY = 1.0 / 3.0
BUMP_AXIS = [0.3, 0.2, 0.93]
SEED_STRIDE = 1000


def _density_scale(seed: int) -> float:
    if seed == 0:
        return 1.0
    rng = np.random.default_rng([seed, 7])
    return float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))


def _solve_base() -> dict:
    return {
        "n": N, "p": P, "q": Q,
        "group": dict(GROUP),
        "q_body": {"kind": "ball"},
        "directions": {"count": 642, "seed": 0},
        "grid": {"scheme": "fibonacci-sphere", "node_count": 20000, "seed": 0},
    }


def solve_flagship(seed: int) -> dict:
    """The ROADMAP flagship: exact solution is the ball of radius
    (n c)^(1/(q-p)) for constant density c (the unit ball at seed 0)."""
    cfg = _solve_base()
    cfg["measure"] = {"density": "constant",
                      "value": DENSITY * _density_scale(seed)}
    cfg["solver"] = {"max_iters": 500, "gradient_tolerance": 1e-7}
    return cfg


def exact_radius(cfg: dict) -> float:
    c = cfg["measure"]["value"]
    return (cfg["n"] * c) ** (1.0 / (cfg["q"] - cfg["p"]))


def solve_bump(seed: int) -> dict:
    t = _density_scale(seed)
    axis = list(BUMP_AXIS)
    if seed != 0:
        from dualminkowski.groups import simplex_symmetry

        elements = simplex_symmetry(GROUP["m"]).elements
        g = elements[np.random.default_rng([seed, 11]).integers(len(elements))]
        axis = (g @ np.asarray(BUMP_AXIS)).tolist()
    cfg = _solve_base()
    cfg["measure"] = {"density": "cosine-bump", "base": 1.0 * t,
                      "amplitude": 2.0 * t, "power": 2.0, "axis": axis}
    cfg["solver"] = {"max_iters": 500, "gradient_tolerance": 5e-4}
    return cfg


def construct_body(seed: int, index: int) -> dict:
    """Criterion-9 orbit-intersection body; index counts bodies in a run."""
    return {
        "construction": "orbit-intersection-min",
        "n": N,
        "group": dict(GROUP),
        "seed": SEED_STRIDE * seed + index,
        "base": {"kind": "shifted-ball", "normal_count": 160, "radius": 2.0,
                 "center": [0.5, 0.0, 0.0]},
        "probe_nodes": 800,
    }


def dirichlet_voronoi_checks() -> list[dict]:
    """The three criterion-9 fundamental-cone checks (fixed inputs)."""
    cases = [({"name": "cyclic", "order": 3}, [1.0, 0.29]),
             ({"name": "cyclic", "order": 5}, [1.0, 0.29]),
             (dict(GROUP), [1.0, 0.29, -0.37])]
    return [{"construction": "dirichlet-voronoi", "n": len(anchor),
             "group": group, "anchor": anchor, "samples": 10000, "seed": 23}
            for group, anchor in cases]


def verify_bounds(seed: int, index: int) -> dict:
    """Criterion-5 sweep: dimensions 2-4, seven q, two boxes per case."""
    return {
        "dimensions": [2, 3, 4],
        "q_values": [0.5, 1, 1.5, 2, 2.5, 3, 3.5],
        "boxes_per_case": 2,
        "axis_range": [0.3, 30.0],
        "grid_nodes": 200000,
        "seed": SEED_STRIDE * seed + index,
    }

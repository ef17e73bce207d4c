"""Variational solver for the prescribed dual-curvature measure equation.

Minimizes the scale-invariant entropy functional over group-invariant bodies
normalized to unit dual volume, then rescales the minimizer so its
support-weighted curvature atoms reproduce the prescribed measure. The
iteration is projected gradient descent in the logarithm of the orbit-reduced
support numbers: multiplicative steps respect positivity, the orbit
parametrization keeps every iterate exactly invariant, and rescaling back to
the unit-dual-volume slice is free because the objective is scale-invariant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bodies import StarBody, SupportPolytope, is_invariant
from .bounds import admissible_exponent_s
from .groups import OrthogonalGroup, certify, orbits
from .measures import MeasureSpec, dual_mixed_volume, lp_dual_curvature_measure
from .sphere import SphericalGrid, stable_sum

__all__ = [
    "ProblemSpec",
    "SolverConfig",
    "SolutionReport",
    "OrbitReduction",
    "reduce_to_orbits",
    "minimize_entropy",
    "assemble_solution",
    "euler_lagrange_check",
    "solve_problem",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem data with the existence theorem's hypotheses checked.

    Construction verifies: q > 0 and -q* < p < 0 (recording the implied
    integrability exponent), the group has no nonzero fixed vector, Q is
    group-invariant, the direction set is exactly group-stable, and the
    measure is non-trivial with orbit-constant atoms.
    """

    dim: int
    p: float
    q: float
    group: OrthogonalGroup
    q_body: StarBody
    mu: MeasureSpec
    directions: np.ndarray
    grid: SphericalGrid
    orbit_partition: list = field(default=None)
    s_exponent: float = field(default=None)

    def __post_init__(self):
        if self.q <= 0 or self.p >= 0:
            raise ValueError("solver range is q > 0, p < 0")
        object.__setattr__(self, "s_exponent",
                           admissible_exponent_s(self.p, self.q, self.dim))
        cert = certify(self.group)
        if cert.has_nonzero_fixed_point:
            raise ValueError("group has a nonzero fixed vector; "
                             "coercivity of the entropy functional fails")
        ok, dev = self.q_body.is_invariant(self.group, tol=1e-8)
        if not ok:
            raise ValueError(f"Q is not group-invariant (deviation {dev:.3e})")
        dirs = np.ascontiguousarray(np.asarray(self.directions, dtype=float))
        worst = 0.0
        for g in self.group.elements:
            images = dirs @ g.T
            nearest = np.argmax(images @ dirs.T, axis=1)
            worst = max(worst, float(
                np.max(np.linalg.norm(images - dirs[nearest], axis=1))))
        if worst > 1e-9:
            raise ValueError(f"direction set is not group-stable ({worst:.3e})")
        if self.orbit_partition is None:
            object.__setattr__(self, "orbit_partition",
                               orbits(self.group, dirs, merge_tol=1e-6))
        if self.mu.directions.shape != dirs.shape or \
                not np.allclose(self.mu.directions, dirs, atol=1e-12):
            raise ValueError("measure atoms must sit on the problem directions")
        atoms = self.mu.atoms
        spread = max(
            float(np.max(atoms[o]) - np.min(atoms[o])) for o in self.orbit_partition
        )
        if spread > 1e-10 * max(float(np.max(atoms)), 1e-300):
            raise ValueError(
                f"measure atoms are not orbit-constant (spread {spread:.3e}); "
                "symmetrize the measure first"
            )
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

    @staticmethod
    def build(dim: int, p: float, q: float, group: OrthogonalGroup,
              q_body: StarBody, density, directions: np.ndarray,
              grid: SphericalGrid, density_label: str = "") -> "ProblemSpec":
        """Assemble a spec from a density: symmetrize, bin to directions,
        orbit-average the atoms (the grid itself is not group-symmetric, so
        raw binned atoms carry a sub-percent asymmetry artifact)."""
        part = orbits(group, np.asarray(directions, dtype=float), merge_tol=1e-6)
        mu = MeasureSpec.from_density(density, grid, directions, group=group,
                                      label=density_label)
        atoms = mu.atoms.copy()
        for orbit in part:
            atoms[orbit] = np.mean(atoms[orbit])
        mu = MeasureSpec.from_atoms(atoms, directions, label=mu.density_label)
        return ProblemSpec(dim=dim, p=p, q=q, group=group, q_body=q_body,
                           mu=mu, directions=np.asarray(directions, dtype=float),
                           grid=grid, orbit_partition=part)


@dataclass(frozen=True)
class SolverConfig:
    """Step rule: backtracking Armijo on the objective value only (the
    objective is piecewise-smooth across facet-activation boundaries, so no
    curvature condition is imposed).

    The gradient tolerance applies to the orbit-reduced gradient. On a finite
    grid the one-sided gradient cannot drop below the largest single-node
    atom jump, so a stall there counts as convergence to the quadrature
    floor; see minimize_entropy.
    """

    max_iters: int = 500
    gradient_tolerance: float = 1e-7
    initial_step: float = 0.1
    shrink: float = 0.5
    slope_factor: float = 1e-4
    min_step: float = 1e-14
    step_growth: float = 4.0  # line search warm-starts at growth * last step
    stall_window: int = 15
    stall_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if min(self.gradient_tolerance, self.initial_step, self.shrink,
               self.slope_factor) <= 0:
            raise ValueError("solver tolerances must be positive")


@dataclass
class SolutionReport:
    body: SupportPolytope
    lam: float
    phi_trace: list
    grad_trace: list
    diameter_trace: list
    scale_invariance_gap: float
    euler_pairing_max: float
    residual: float
    converged: bool
    convergence_reason: str
    gradient_floor: float
    floor_hit: bool
    diameter_alarm: bool
    iterations: int
    kernel_passes: int  # node-facet passes; a diameter sample is two
    candidate_rebuilds: int  # candidate-list builds, first builds included
    wall_time: float
    orbit_values_trace: list
    # support-weighted curvature atoms of body, set by assemble_solution
    atoms: np.ndarray | None = None


@dataclass(frozen=True)
class OrbitReduction:
    """Maps between orbit-level parameters and per-direction vectors."""

    partition: list
    orbit_of: np.ndarray
    representatives: np.ndarray

    def expand(self, orbit_values: np.ndarray) -> np.ndarray:
        return np.asarray(orbit_values, dtype=float)[self.orbit_of]

    def collapse(self, full_gradient: np.ndarray) -> np.ndarray:
        return np.array([stable_sum(full_gradient[o]) for o in self.partition])

    @property
    def orbit_count(self) -> int:
        return len(self.partition)


def reduce_to_orbits(spec: ProblemSpec) -> OrbitReduction:
    part = spec.orbit_partition
    orbit_of = np.empty(spec.directions.shape[0], dtype=np.intp)
    reps = np.empty(len(part), dtype=np.intp)
    for k, orbit in enumerate(part):
        orbit_of[orbit] = k
        reps[k] = orbit[0]
    return OrbitReduction(partition=part, orbit_of=orbit_of, representatives=reps)


class _Candidates(NamedTuple):
    """Per-node candidate facets, one node per column, padded to a common
    number of rows."""

    ratio: float        # exact for every h with min(h) / max(h) >= ratio
    cols: np.ndarray    # (width, nodes) facet indices
    values: np.ndarray  # (width, nodes) node-facet inner products at cols


# Relative slack on the pruning bound: a computed A / h carries under 1e-15
# relative rounding, so the true winner always clears the loosened bound.
_PRUNE_SLACK = 1e-12
# Lists are built for 0.95 * min(h) / max(h): near r = 1 that keeps about 3%
# of the facets per node, and r may fall 5% before a rebuild (~20 passes).
_REBUILD_MARGIN = 0.95


class _EntropyKernel:
    """Cached node-direction geometry for fast repeated evaluations.

    The inner products A = nodes @ directions.T are fixed during a solve;
    only the support numbers h change. The exit facet at node u maximizes
    A[u, i] / h_i with ties to the smallest index, the facet rule of
    radial_profile; rho = 1 / max_i (A[u, i] / h_i) equals radial_profile's
    min_i h_i / A[u, i] only to rounding.

    The pass is pruned exactly. With r = min(h) / max(h), facet i can win at
    u only if A[u, i] >= r * max_j A[u, j]. Each node keeps the list of
    facets that clear this bound at a built ratio, and a pass scans only
    those; the lists are rebuilt when an h arrives whose r is below the
    built ratio. Every facet attaining the maximum is on the list, and the
    exit facet is the smallest of them, so rho, the exit facets and
    everything summed from them equal the dense pass over A bit for bit.
    The antipodal nodes -u (for the diameter) keep lists of their own.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        grid, dirs = spec.grid, spec.directions
        self.denom = grid.nodes @ dirs.T
        n = spec.dim
        self.q_factor = spec.q_body.radial(grid.nodes) ** (n - spec.q) / n
        self.weights = grid.weights
        self.n_dirs = dirs.shape[0]
        self._nodes = np.arange(self.denom.shape[0])
        self._lists = {False: None, True: None}  # keyed by `antipodal`
        self.passes = 0
        self.rebuilds = 0

    def _build(self, ratio: float, antipodal: bool) -> _Candidates:
        denom = self.denom
        # node -u has inner products -A[u]: compare A with -cut rather than
        # negating the whole matrix
        top = -np.min(denom, axis=1) if antipodal else np.max(denom, axis=1)
        if not np.all(top > 0):
            raise ValueError(
                f"no positive inner product at node {int(np.argmin(top))}; "
                "directions do not positively span")
        cut = (ratio * (1.0 - _PRUNE_SLACK)) * top[:, None]
        mask = denom <= -cut if antipodal else denom >= cut
        nodes, cols = np.divmod(np.flatnonzero(mask), self.n_dirs)
        counts = np.bincount(nodes, minlength=denom.shape[0])
        start = np.cumsum(counts) - counts
        # pad each node with repeats of its first candidate (same value and
        # index, so neither the maximum nor the exit facet can change)
        padded = np.repeat(cols[start][None, :], int(counts.max()), axis=0)
        padded[np.arange(nodes.size) - start[nodes], nodes] = cols
        values = denom[self._nodes, padded]
        self.rebuilds += 1
        return _Candidates(ratio, padded, -values if antipodal else values)

    def _rho(self, h: np.ndarray, want_idx: bool, antipodal: bool = False):
        """rho at every node u (or -u), and the exit facets if want_idx."""
        self.passes += 1
        ratio = float(np.min(h) / np.max(h))
        if not ratio > 0:
            raise ValueError("support numbers must be positive and finite")
        cand = self._lists[antipodal]
        if cand is None or ratio < cand.ratio:
            cand = self._build(_REBUILD_MARGIN * ratio, antipodal)
            self._lists[antipodal] = cand
        scaled = (1.0 / h)[cand.cols]
        scaled *= cand.values
        best = np.max(scaled, axis=0)
        if not want_idx:
            return 1.0 / best, None
        # the dense argmax's first-index rule: smallest facet attaining best
        idx = np.min(np.where(scaled == best, cand.cols, self.n_dirs), axis=0)
        return 1.0 / best, idx

    def dual_volume(self, h: np.ndarray) -> float:
        rho, _ = self._rho(h, want_idx=False)
        return stable_sum(rho ** self.spec.q * self.q_factor * self.weights)

    def phi(self, h: np.ndarray) -> tuple[float, float]:
        """Return (phi, dual volume) at h."""
        mass = stable_sum(h ** self.spec.p * self.spec.mu.atoms)
        vol = self.dual_volume(h)
        return math.log(mass) / self.spec.p - math.log(vol) / self.spec.q, vol

    def state(self, h: np.ndarray):
        """Return (phi, full log-gradient, curvature atoms, dual volume,
        node_jump), where node_jump is the largest single-node contribution
        to the normalized atoms: the resolution limit of the gradient."""
        p, q = self.spec.p, self.spec.q
        rho, idx = self._rho(h, want_idx=True)
        values = rho ** q * self.q_factor * self.weights
        atoms = np.bincount(idx, weights=values, minlength=self.n_dirs)
        vol = stable_sum(atoms)
        weighted = h ** p * self.spec.mu.atoms
        mass = stable_sum(weighted)
        phi = math.log(mass) / p - math.log(vol) / q
        # gradient in log h: h * dPhi/dh
        log_grad = weighted / mass - atoms / vol
        node_jump = float(np.max(values)) / vol
        return phi, log_grad, atoms, vol, node_jump

    def diameter(self, h: np.ndarray) -> float:
        rho, _ = self._rho(h, want_idx=False)
        rho_neg, _ = self._rho(h, want_idx=False, antipodal=True)
        return float(np.max(rho + rho_neg))


def minimize_entropy(spec: ProblemSpec, config: SolverConfig | None = None,
                     initial_orbit_values: np.ndarray | None = None):
    """Minimize the entropy functional over the unit-dual-volume slice.

    Returns (body, report) where the body has dual volume 1 within 1e-10 and
    the report carries the full iteration trace.

    Convergence: the orbit-reduced gradient norm drops below the configured
    tolerance, or the iteration stalls (no objective progress over
    stall_window iterations, or line-search underflow) with the gradient
    within a factor 10 of the quadrature floor. The floor is the largest
    single-node atom contribution: below it the one-sided gradient of the
    piecewise-smooth discrete objective carries no information, and only a
    finer grid can push it down. A stall above that floor is flagged as
    non-convergence.
    """
    config = config or SolverConfig()
    red = reduce_to_orbits(spec)
    kernel = _EntropyKernel(spec)
    q = spec.q

    if initial_orbit_values is None:
        theta = np.zeros(red.orbit_count)
    else:
        vals = np.asarray(initial_orbit_values, dtype=float)
        if vals.shape != (red.orbit_count,) or np.any(vals <= 0):
            raise ValueError("initial orbit values must be positive, one per orbit")
        theta = np.log(vals)

    # normalize onto the unit-volume slice; fix the positivity floor there
    h = np.exp(theta)[red.orbit_of]
    scale = kernel.dual_volume(h) ** (-1.0 / q)
    theta = theta + math.log(scale)
    h = np.exp(theta)[red.orbit_of]
    floor = 1e-6 * float(np.exp(np.mean(np.log(h))))
    initial_circum = kernel.diameter(h) / 2.0

    phi_trace, grad_trace, diam_trace, orbit_trace = [], [], [], []
    scale_gap = 0.0
    pairing_max = 0.0
    floor_hit = False
    diameter_alarm = False
    converged = False
    reason = "max-iterations"
    node_jump = 0.0
    diam = 2.0 * initial_circum
    last_step = config.initial_step / config.step_growth
    phi_after_rescale_pred = None
    t0 = time.perf_counter()
    iteration = 0

    def at_quadrature_floor(gnorm: float) -> bool:
        return gnorm <= 10.0 * node_jump

    for iteration in range(config.max_iters):
        phi, log_grad, atoms, vol, node_jump = kernel.state(h)
        ghat = red.collapse(log_grad)
        gnorm = float(np.linalg.norm(ghat))
        # scale-direction pairing <grad, h> = sum of the log-gradient
        pairing_max = max(pairing_max, abs(float(stable_sum(log_grad))))
        if phi_after_rescale_pred is not None:
            scale_gap = max(scale_gap, abs(phi - phi_after_rescale_pred))
        if iteration % 10 == 0:
            diam = kernel.diameter(h)  # sampled: diagnostics only
        phi_trace.append(phi)
        grad_trace.append(gnorm)
        diam_trace.append(diam)
        orbit_trace.append(np.exp(theta).copy())
        if diam > 10.0 * initial_circum:
            diameter_alarm = True  # coercivity monitor: input likely degenerate
        if gnorm <= config.gradient_tolerance:
            converged = True
            reason = "gradient-tolerance"
            break
        if gnorm <= node_jump:
            converged = True  # below single-node resolution of the grid
            reason = "quadrature-floor"
            break
        w = config.stall_window
        if len(phi_trace) > w and \
                phi_trace[-w - 1] - phi <= config.stall_tolerance * max(1.0, abs(phi)):
            converged = at_quadrature_floor(gnorm)
            reason = "quadrature-floor" if converged else "stalled"
            break

        step = min(config.initial_step, config.step_growth * last_step)
        accepted = False
        target_drop = config.slope_factor * gnorm * gnorm
        while step >= config.min_step:
            theta_new = theta - step * ghat
            h_new = np.exp(theta_new)[red.orbit_of]
            if np.any(h_new < floor):
                floor_hit = True
                theta_new = np.maximum(theta_new, math.log(floor))
                h_new = np.exp(theta_new)[red.orbit_of]
            phi_new, vol_new = kernel.phi(h_new)
            if phi_new <= phi - step * target_drop:
                accepted = True
                break
            step *= config.shrink
        if not accepted:
            converged = at_quadrature_floor(gnorm)
            reason = "quadrature-floor" if converged else "line-search-underflow"
            break
        last_step = step

        theta = theta_new - math.log(vol_new) / q
        h = np.exp(theta)[red.orbit_of]
        phi_after_rescale_pred = phi_new  # scale invariance: must match next phi

    body = SupportPolytope(dim=spec.dim, normals=spec.directions, support=h,
                           h_floor=min(floor, float(np.min(h))))
    report = SolutionReport(
        body=body, lam=float("nan"), phi_trace=phi_trace, grad_trace=grad_trace,
        diameter_trace=diam_trace, scale_invariance_gap=scale_gap,
        euler_pairing_max=pairing_max, residual=float("nan"),
        converged=converged, convergence_reason=reason, gradient_floor=node_jump,
        floor_hit=floor_hit, diameter_alarm=diameter_alarm,
        iterations=iteration + 1, kernel_passes=kernel.passes,
        candidate_rebuilds=kernel.rebuilds, wall_time=time.perf_counter() - t0,
        orbit_values_trace=orbit_trace,
    )
    return body, report


def assemble_solution(body_tilde: SupportPolytope, spec: ProblemSpec,
                      report: SolutionReport) -> SolutionReport:
    """Rescale the unit-volume minimizer into the measure-equation solution.

    lambda is the mass term at the minimizer; scaling by lambda^{1/(q-p)}
    makes the support-weighted curvature atoms match the prescribed atoms.
    The residual is the orbit-binned relative l1 gap between the two.
    """
    vol = dual_mixed_volume(body_tilde, spec.q_body, spec.q, spec.grid)
    if abs(vol - 1.0) > 1e-8:
        raise ValueError(f"minimizer must have unit dual volume, got {vol}")
    lam = stable_sum(body_tilde.support ** spec.p * spec.mu.atoms)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("mass term at the minimizer is degenerate")
    factor = lam ** (1.0 / (spec.q - spec.p))
    solution = body_tilde.with_support(body_tilde.support * factor)

    atoms = lp_dual_curvature_measure(solution, spec.q_body, spec.p, spec.q,
                                      spec.grid).atoms
    part = spec.orbit_partition
    got = np.array([stable_sum(atoms[o]) for o in part])
    want = np.array([stable_sum(spec.mu.atoms[o]) for o in part])
    residual = float(np.sum(np.abs(got - want)) / np.sum(want))

    report.body = solution
    report.atoms = atoms
    report.lam = float(lam)
    report.residual = residual
    return report


def euler_lagrange_check(body_tilde: SupportPolytope, lam: float,
                         spec: ProblemSpec) -> float:
    """Max orbit-wise relative gap in the stationarity identity
    mu_O = lambda * sum over the orbit of (curvature atom) * h^{-p}."""
    from .measures import dual_curvature_measure

    atoms = dual_curvature_measure(body_tilde, spec.q_body, spec.q,
                                   spec.grid).atoms
    pred = lam * atoms * body_tilde.support ** (-spec.p)
    worst = 0.0
    for orbit in spec.orbit_partition:
        want = stable_sum(spec.mu.atoms[orbit])
        if want <= 0:
            continue
        got = stable_sum(pred[orbit])
        worst = max(worst, abs(got - want) / want)
    return worst


def solve_problem(spec: ProblemSpec, config: SolverConfig | None = None) -> SolutionReport:
    """End-to-end: minimize, rescale, and attach the measure residual."""
    body_tilde, report = minimize_entropy(spec, config)
    return assemble_solution(body_tilde, spec, report)

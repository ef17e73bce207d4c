"""Variational solver for the prescribed dual-curvature measure equation.

Minimizes the scale-invariant entropy functional over group-invariant bodies
normalized to unit dual volume, then rescales the minimizer so its
support-weighted curvature atoms reproduce the prescribed measure. The
iteration is a quasi-Newton (dense BFGS) descent in theta, the logarithm of
the orbit-reduced support numbers: multiplicative steps respect positivity,
the orbit parametrization keeps every iterate exactly invariant, and
rescaling back to the unit-dual-volume slice is free because the objective is
scale-invariant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bodies import RadialKernel, StarBody, SupportPolytope
from .bounds import admissible_exponent_s
from .groups import (GroupCertificate, OrthogonalGroup, certify, image_gap,
                     orbits, symmetrize_density)
from .measures import MeasureSpec, entropy_state, integrand_values
from .sphere import SphericalGrid, stable_sum

__all__ = [
    "HypothesisError",
    "ProblemSpec",
    "SolverConfig",
    "SolutionReport",
    "orbit_sums",
    "minimize_entropy",
    "assemble_solution",
    "euler_lagrange_check",
    "solve_problem",
]


class HypothesisError(ValueError):
    """A hypothesis of the existence theorem fails for the problem data."""


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem data with the existence theorem's hypotheses checked.

    The one place that checks them: construction raises HypothesisError unless
    -q* < p < 0 (recording the implied integrability exponent), the group has
    no nonzero fixed vector (keeping its certificate), and Q is
    group-invariant; and ValueError unless the direction set is exactly
    group-stable and the measure sits on it. One image match gives both the
    stability verdict and the orbits: groups.orbits matches every image g @ u
    to its nearest direction and reports whether each lies within
    groups.STABLE_TOL. It also holds the orbit map of the directions
    (orbit_partition, and orbit_of, the orbit index of each direction) and
    replaces the measure's atoms by their orbit means, so mu is
    group-invariant, as the theorem asks, for every spec. Every solver pass
    reads q_weight, rho_Q^{n-q} at the grid nodes, and radial, the one
    RadialKernel on the nodes and directions: its lists are built on its first
    pass, and its counters add up over every solve of the spec.
    """

    dim: int
    p: float
    q: float
    group: OrthogonalGroup
    q_body: StarBody
    mu: MeasureSpec
    directions: np.ndarray
    grid: SphericalGrid
    s_exponent: float = field(init=False)
    certificate: GroupCertificate = field(init=False)
    orbit_partition: list = field(init=False)
    orbit_of: np.ndarray = field(init=False)
    q_weight: np.ndarray = field(init=False)
    radial: RadialKernel = field(init=False)

    def __post_init__(self):
        try:
            s = admissible_exponent_s(self.p, self.q, self.dim)
        except ValueError as exc:
            raise HypothesisError(str(exc)) from exc
        object.__setattr__(self, "s_exponent", s)
        cert = certify(self.group)
        object.__setattr__(self, "certificate", cert)
        if cert.has_nonzero_fixed_point:
            raise HypothesisError("group has a nonzero fixed vector; "
                                  "coercivity of the entropy functional fails")
        ok, dev = self.q_body.is_invariant(self.group)
        if not ok:
            raise HypothesisError(
                f"Q is not group-invariant (deviation {dev:.3e})")
        dirs = np.ascontiguousarray(np.asarray(self.directions, dtype=float))
        part = orbits(self.group, dirs)
        if not part.stable:
            raise ValueError("direction set is not group-stable "
                             f"({image_gap(self.group, dirs):.3e})")
        if self.mu.directions.shape != dirs.shape or \
                not np.allclose(self.mu.directions, dirs, atol=1e-12):
            raise ValueError("measure atoms must sit on the problem directions")
        # the grid itself is not group-symmetric, so atoms binned from a
        # density carry a sub-percent asymmetry artifact
        atoms = self.mu.atoms.copy()
        orbit_of = np.empty(dirs.shape[0], dtype=np.intp)
        for k, orbit in enumerate(part):
            atoms[orbit] = np.mean(atoms[orbit])
            orbit_of[orbit] = k
        dirs.setflags(write=False)
        orbit_of.setflags(write=False)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "orbit_partition", part)
        object.__setattr__(self, "orbit_of", orbit_of)
        object.__setattr__(self, "mu",
                           MeasureSpec.from_atoms(atoms, self.mu.directions))
        nodes = self.grid.nodes
        object.__setattr__(self, "q_weight",
                           self.q_body.radial(nodes) ** (self.grid.dim - self.q))
        object.__setattr__(self, "radial", RadialKernel(nodes, dirs))

    @staticmethod
    def build(dim: int, p: float, q: float, group: OrthogonalGroup,
              q_body: StarBody, measure, directions: np.ndarray,
              grid: SphericalGrid) -> "ProblemSpec":
        """Assemble a spec from a density (symmetrized, then binned to the
        directions) or from one atom per direction."""
        if callable(measure):
            mu = MeasureSpec.from_density(symmetrize_density(group, measure),
                                          grid, directions)
        else:
            mu = MeasureSpec.from_atoms(measure, directions)
        return ProblemSpec(dim=dim, p=p, q=q, group=group, q_body=q_body,
                           mu=mu, directions=np.asarray(directions, dtype=float),
                           grid=grid)


# The step rule: the direction is d = -H g, with g the orbit-reduced gradient
# and H a dense BFGS inverse-Hessian estimate in theta; a trial step starts
# at 1. Without a usable H (the first iteration, a curvature pair with
# s.y <= CURVATURE_TOL |s| |y|, or a d that is not a descent direction) H is
# dropped and the step is steepest descent, d = -g, starting at
# min(INITIAL_STEP, STEP_GROWTH * last accepted steepest-descent step). Every
# trial is capped at max |step d| <= MAX_THETA_STEP, which keeps one step
# from spreading the support numbers so far that the kernel must rebuild its
# lists for nearly every facet. The line search is backtracking Armijo on the
# objective value only (the objective is piecewise-smooth across
# facet-activation boundaries, so no curvature condition is imposed): the
# step shrinks by SHRINK until the objective drops by
# SLOPE_FACTOR * step * |g.d|, giving up below MIN_STEP. A run stalls when the
# objective drops by at most STALL_TOLERANCE * max(1, |phi|) over
# STALL_WINDOW iterations.
INITIAL_STEP = 0.1
SHRINK = 0.5
SLOPE_FACTOR = 1e-4
MIN_STEP = 1e-14
STEP_GROWTH = 4.0
MAX_THETA_STEP = 0.5
CURVATURE_TOL = 1e-12
STALL_WINDOW = 15
STALL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """The two settings of a solve: the iteration cap and the gradient
    tolerance. The tolerance applies to the orbit-reduced gradient. On a
    finite grid the one-sided gradient cannot drop below the largest
    single-node atom jump, so a stall there counts as convergence to the
    quadrature floor; see minimize_entropy.
    """

    max_iters: int = 500
    gradient_tolerance: float = 1e-7

    def __post_init__(self):
        for name, (ok, want) in _CONFIG_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(
                    f"solver field {name!r} must be {want}, got {value!r}")


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and math.isfinite(x)


# SolverConfig field: (test, valid range); at least one iteration, and a
# tolerance that a finite gradient norm can reach.
_CONFIG_RANGES = {
    "max_iters": (lambda x: _integer(x) and x >= 1, "an integer >= 1"),
    "gradient_tolerance": (lambda x: _finite(x) and x > 0, "a finite number > 0"),
}


@dataclass
class SolutionReport:
    body: SupportPolytope
    lam: float
    phi_trace: list
    grad_trace: list
    circumradius_trace: list  # max rho of each iterate, from its state pass
    scale_invariance_gap: float
    euler_pairing_max: float
    residual: float
    converged: bool
    convergence_reason: str
    gradient_floor: float
    floor_hit: bool
    circumradius_alarm: bool
    iterations: int
    orbit_values_trace: list
    # accepted line-search step of each iteration that took a step
    step_trace: list
    # objective passes of the line-search trials
    line_search_passes: int
    # BFGS estimates dropped for a failed curvature pair or a non-descent
    # direction
    quasi_newton_resets: int
    # support-weighted curvature atoms of body, set by assemble_solution
    atoms: np.ndarray | None = None
    # largest per-orbit relative gap of those atoms, set by assemble_solution
    euler_lagrange_gap: float = float("nan")


def orbit_sums(spec: ProblemSpec, values: np.ndarray) -> np.ndarray:
    """The stable_sum of per-direction values over each orbit of the spec:
    math.fsum of the orbit's entries, which stable_sum equals bit for bit,
    all read from one list of the values."""
    flat = np.asarray(values, dtype=float).tolist()
    return np.array([math.fsum([flat[i] for i in orbit])
                     for orbit in spec.orbit_partition])


# The entropy functional on the spec's kernel: a pass's dual volume and atoms
# equal dual_mixed_volume's and dual_curvature_measure's bit for bit.


def _dual_volume(spec: ProblemSpec, h: np.ndarray) -> float:
    rho, _ = spec.radial.profile(h, want_idx=False)
    return stable_sum(integrand_values(rho, spec.q_weight, spec.q, spec.grid))


def _phi(spec: ProblemSpec, h: np.ndarray) -> tuple[float, float]:
    """Return (phi, dual volume) at h."""
    vol = _dual_volume(spec, h)
    phi, _ = entropy_state(h, spec.mu.atoms, spec.p, spec.q, vol, None)
    return phi, vol


def _curvature_atoms(spec: ProblemSpec, h: np.ndarray):
    """Return (curvature atoms, node values, rho) at h."""
    rho, idx = spec.radial.profile(h)
    values = integrand_values(rho, spec.q_weight, spec.q, spec.grid)
    return np.bincount(idx, weights=values, minlength=h.size), values, rho


def _state(spec: ProblemSpec, h: np.ndarray):
    """Return (phi, full log-gradient, node_jump, circumradius), where
    node_jump is the largest single-node contribution to the normalized
    atoms: the resolution limit of the gradient."""
    atoms, values, rho = _curvature_atoms(spec, h)
    vol = stable_sum(atoms)
    phi, log_grad = entropy_state(h, spec.mu.atoms, spec.p, spec.q, vol, atoms)
    return phi, log_grad, float(np.max(values)) / vol, float(np.max(rho))


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The BFGS update of the inverse-Hessian estimate H by the curvature
    pair (s, y), which needs s.y > 0: the result is symmetric, positive
    definite when H is, and maps y to s."""
    rho = 1.0 / float(s @ y)
    Hy = H @ y
    return H + (rho * rho * float(y @ Hy) + rho) * np.outer(s, s) \
        - rho * (np.outer(Hy, s) + np.outer(s, Hy))


def minimize_entropy(spec: ProblemSpec, config: SolverConfig | None = None,
                     initial_orbit_values: np.ndarray | None = None):
    """Minimize the entropy functional over the unit-dual-volume slice.

    Returns (body, report) where the body has dual volume 1 within 1e-10 and
    the report carries the full iteration trace.

    Convergence: the orbit-reduced gradient norm drops below the configured
    tolerance, or the iteration stalls (no objective progress over
    STALL_WINDOW iterations, or line-search underflow) with the gradient
    within a factor 10 of the quadrature floor. The floor is the largest
    single-node atom contribution: below it the one-sided gradient of the
    piecewise-smooth discrete objective carries no information, and only a
    finer grid can push it down. A stall above that floor is flagged as
    non-convergence. The coercivity monitor raises circumradius_alarm when
    an iterate's circumradius exceeds 5 times the first iterate's.
    """
    config = config or SolverConfig()
    orbit_count = len(spec.orbit_partition)
    q = spec.q

    if initial_orbit_values is None:
        theta = np.zeros(orbit_count)
    else:
        vals = np.asarray(initial_orbit_values, dtype=float)
        if vals.shape != (orbit_count,) or \
                not np.all(np.isfinite(vals) & (vals > 0)):
            raise ValueError("initial orbit values must be positive and "
                             "finite, one per orbit")
        theta = np.log(vals)

    # normalize onto the unit-volume slice; fix the positivity floor there
    h = np.exp(theta)[spec.orbit_of]
    scale = _dual_volume(spec, h) ** (-1.0 / q)
    theta = theta + math.log(scale)
    h = np.exp(theta)[spec.orbit_of]
    floor = 1e-6 * float(np.exp(np.mean(np.log(h))))

    phi_trace, grad_trace, circum_trace, orbit_trace = [], [], [], []
    scale_gap = 0.0
    pairing_max = 0.0
    floor_hit = False
    circumradius_alarm = False
    converged = False
    reason = "max-iterations"
    node_jump = 0.0
    last_step = INITIAL_STEP / STEP_GROWTH
    phi_after_rescale_pred = None
    iteration = 0
    step_trace = []
    trials = 0
    resets = 0
    inv_hessian = None
    previous = None  # (theta, ghat) of the last iteration that took a step

    def at_quadrature_floor(gnorm: float) -> bool:
        return gnorm <= 10.0 * node_jump

    for iteration in range(config.max_iters):
        phi, log_grad, node_jump, circum = _state(spec, h)
        ghat = orbit_sums(spec, log_grad)
        gnorm = float(np.linalg.norm(ghat))
        # scale-direction pairing <grad, h> = sum of the log-gradient
        pairing_max = max(pairing_max, abs(float(stable_sum(log_grad))))
        if phi_after_rescale_pred is not None:
            scale_gap = max(scale_gap, abs(phi - phi_after_rescale_pred))
        phi_trace.append(phi)
        grad_trace.append(gnorm)
        circum_trace.append(circum)
        orbit_trace.append(np.exp(theta).copy())
        if circum > 5.0 * circum_trace[0]:
            circumradius_alarm = True  # coercivity monitor: degenerate input
        if gnorm <= config.gradient_tolerance:
            converged = True
            reason = "gradient-tolerance"
            break
        if gnorm <= node_jump:
            converged = True  # below single-node resolution of the grid
            reason = "quadrature-floor"
            break
        if len(phi_trace) > STALL_WINDOW and phi_trace[-STALL_WINDOW - 1] - phi \
                <= STALL_TOLERANCE * max(1.0, abs(phi)):
            converged = at_quadrature_floor(gnorm)
            reason = "quadrature-floor" if converged else "stalled"
            break

        if previous is not None:
            s = theta - previous[0]
            y = ghat - previous[1]
            sy = float(s @ y)
            if sy > CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
                if inv_hessian is None:
                    inv_hessian = sy / float(y @ y) * np.eye(orbit_count)
                inv_hessian = _bfgs_update(inv_hessian, s, y)
            elif inv_hessian is not None:
                inv_hessian = None
                resets += 1
        if inv_hessian is not None and not ghat @ inv_hessian @ ghat > 0:
            inv_hessian = None  # -H g is not a descent direction
            resets += 1
        if inv_hessian is None:
            direction = -ghat
            step = min(INITIAL_STEP, STEP_GROWTH * last_step)
        else:
            direction = -(inv_hessian @ ghat)
            step = 1.0
        step = min(step, MAX_THETA_STEP / float(np.max(np.abs(direction))))
        accepted = False
        target_drop = -SLOPE_FACTOR * float(ghat @ direction)
        while step >= MIN_STEP:
            trials += 1
            theta_new = theta + step * direction
            h_new = np.exp(theta_new)[spec.orbit_of]
            if np.any(h_new < floor):
                floor_hit = True
                theta_new = np.maximum(theta_new, math.log(floor))
                h_new = np.exp(theta_new)[spec.orbit_of]
            phi_new, vol_new = _phi(spec, h_new)
            if phi_new <= phi - step * target_drop:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            converged = at_quadrature_floor(gnorm)
            reason = "quadrature-floor" if converged else "line-search-underflow"
            break
        if inv_hessian is None:
            last_step = step
        step_trace.append(step)
        previous = theta, ghat

        theta = theta_new - math.log(vol_new) / q
        h = np.exp(theta)[spec.orbit_of]
        phi_after_rescale_pred = phi_new  # scale invariance: must match next phi

    body = SupportPolytope(dim=spec.dim, normals=spec.directions, support=h,
                           h_floor=min(floor, float(np.min(h))))
    report = SolutionReport(
        body=body, lam=float("nan"), phi_trace=phi_trace, grad_trace=grad_trace,
        circumradius_trace=circum_trace, scale_invariance_gap=scale_gap,
        euler_pairing_max=pairing_max, residual=float("nan"),
        converged=converged, convergence_reason=reason, gradient_floor=node_jump,
        floor_hit=floor_hit, circumradius_alarm=circumradius_alarm,
        iterations=iteration + 1, orbit_values_trace=orbit_trace,
        step_trace=step_trace, line_search_passes=trials,
        quasi_newton_resets=resets,
    )
    return body, report


def assemble_solution(body_tilde: SupportPolytope, spec: ProblemSpec,
                      report: SolutionReport) -> SolutionReport:
    """Rescale the unit-volume minimizer into the measure-equation solution.

    lambda is the mass term at the minimizer; scaling by lambda^{1/(q-p)}
    makes the support-weighted curvature atoms match the prescribed atoms.
    One pass of the spec's kernel gives the solution's atoms, and from them
    the minimizer's dual volume, the residual and the Euler-Lagrange gap: by
    homogeneity they equal lambda * (curvature atom) * h^{-p} of the minimizer.
    """
    lam = stable_sum(body_tilde.support ** spec.p * spec.mu.atoms)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("mass term at the minimizer is degenerate")
    factor = lam ** (1.0 / (spec.q - spec.p))
    solution = body_tilde.with_support(body_tilde.support * factor)

    atoms = _curvature_atoms(spec, solution.support)[0] * \
        solution.support ** (-spec.p)
    vol = stable_sum(atoms * solution.support ** spec.p) / factor ** spec.q
    if abs(vol - 1.0) > 1e-8:
        raise ValueError(f"minimizer must have unit dual volume, got {vol}")

    report.body = solution
    report.atoms = atoms
    report.lam = float(lam)
    report.residual, report.euler_lagrange_gap = _orbit_gaps(atoms, spec)
    return report


def _orbit_gaps(atoms: np.ndarray, spec: ProblemSpec) -> tuple[float, float]:
    """The residual (relative l1 gap of the orbit sums of support-weighted
    atoms and of mu) and the largest relative gap of one orbit of mu-mass."""
    want = orbit_sums(spec, spec.mu.atoms)
    gaps = np.abs(orbit_sums(spec, atoms) - want)
    held = want > 0
    return (float(np.sum(gaps) / np.sum(want)),
            float(np.max(gaps[held] / want[held], initial=0.0)))


def euler_lagrange_check(body_tilde: SupportPolytope, lam: float,
                         spec: ProblemSpec) -> float:
    """Max orbit-wise relative gap in the stationarity identity
    mu_O = lambda * sum over the orbit of (curvature atom) * h^{-p}; the
    body's normals are the spec's directions."""
    atoms = _curvature_atoms(spec, body_tilde.support)[0]
    return _orbit_gaps(lam * atoms * body_tilde.support ** (-spec.p), spec)[1]


def solve_problem(spec: ProblemSpec, config: SolverConfig | None = None) -> SolutionReport:
    """End-to-end: minimize, rescale, and attach the measure residual."""
    body_tilde, report = minimize_entropy(spec, config)
    return assemble_solution(body_tilde, spec, report)

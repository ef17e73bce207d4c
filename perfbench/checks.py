"""Output checks for every workload.

Each check takes what a command wrote (manifest outcome, certificate, CSV
rows, solved body) and returns a list of failure messages; an empty list
means the output is correct. The gates are the acceptance criteria's own.
"""

from __future__ import annotations

import math

import numpy as np

EXIT_OK = 0
RMS_GATE = 0.02          # criterion 1
RESIDUAL_GATE = 0.02     # criteria 1 and 2
SCALE_GAP_GATE = 1e-10   # criterion 8
PAIRING_GATE = 1e-9      # criterion 8
INVARIANCE_GATE = 1e-9   # criteria 8 and 9
CERTIFIED_SHARE_GATE = 0.95  # criterion 9


def radial_rms_error(body, grid, radius: float) -> float:
    """rms of rho_K / r - 1 over the grid nodes, against the exact ball."""
    from dualminkowski.bodies import radial_profile

    rho, _ = radial_profile(body, grid.nodes)
    return float(np.sqrt(np.mean((rho / radius - 1.0) ** 2)))


def support_pairing(body, spec) -> float:
    """|<grad Phi, h>| at the body; scale invariance makes it vanish."""
    from dualminkowski.measures import entropy_gradient

    grad = entropy_gradient(body, spec.mu, spec.q_body, spec.p, spec.q,
                            spec.grid)
    return abs(float(np.sum(grad * body.support)))


def flagship_failures(exit_code: int, outcome: dict, rms: float,
                      pairing: float) -> list[str]:
    out = []
    if exit_code != EXIT_OK or not outcome.get("converged"):
        out.append(f"solve did not converge (exit {exit_code}, "
                   f"{outcome.get('convergence_reason')})")
    if not rms <= RMS_GATE:
        out.append(f"radial rms error {rms:.3e} > {RMS_GATE}")
    if not outcome.get("residual_orbit_l1", math.inf) <= RESIDUAL_GATE:
        out.append(f"residual {outcome.get('residual_orbit_l1')} > {RESIDUAL_GATE}")
    if not outcome.get("scale_invariance_gap", math.inf) <= SCALE_GAP_GATE:
        out.append(f"scale-invariance gap {outcome.get('scale_invariance_gap')}"
                   f" > {SCALE_GAP_GATE}")
    if not pairing <= PAIRING_GATE:
        out.append(f"<grad,h> {pairing:.3e} > {PAIRING_GATE}")
    return out


def bump_failures(exit_code: int, outcome: dict) -> list[str]:
    out = []
    if exit_code != EXIT_OK or outcome.get("convergence_reason") != "gradient-tolerance":
        out.append(f"bump solve stopped with {outcome.get('convergence_reason')}"
                   f" (exit {exit_code}), expected gradient-tolerance")
    if not outcome.get("residual_orbit_l1", math.inf) <= RESIDUAL_GATE:
        out.append(f"residual {outcome.get('residual_orbit_l1')} > {RESIDUAL_GATE}")
    return out


def body_failures(exit_code: int, certificate: dict) -> list[str]:
    out = []
    if exit_code != EXIT_OK:
        out.append(f"construct exited with {exit_code}")
    dev = certificate.get("invariance_deviation", math.inf)
    if not dev <= INVARIANCE_GATE:
        out.append(f"invariance deviation {dev} > {INVARIANCE_GATE}")
    return out


def certified_share_failures(certified: int, bodies: int) -> list[str]:
    share = certified / bodies if bodies else 0.0
    if share >= CERTIFIED_SHARE_GATE:
        return []
    return [f"certified share {certified}/{bodies} < {CERTIFIED_SHARE_GATE}"]


def cone_failures(exit_code: int, cone: dict) -> list[str]:
    out = []
    if exit_code != EXIT_OK:
        out.append(f"dirichlet-voronoi construct exited with {exit_code}")
    if not cone.get("all_covered"):
        out.append(f"cone copies miss {cone.get('sample_count', 0) - cone.get('covered', 0)} points")
    if not cone.get("interiors_disjoint"):
        out.append(f"cone interiors overlap ({cone.get('max_interior_hits')} hits)")
    return out


def bracket_failures(exit_code: int, rows: list[dict]) -> list[str]:
    """Every observation must lie in [lower, upper], read from the CSV."""
    out = []
    if exit_code != EXIT_OK:
        out.append(f"verify-bounds exited with {exit_code}")
    if not rows:
        out.append("verify-bounds wrote no rows")
    for row in rows:
        lower, observed, upper = (float(row[k]) for k in ("lower", "observed", "upper"))
        if not lower <= observed <= upper:
            out.append(f"n={row['n']} q={row['q']} axes={row['half_axes']}: "
                       f"{observed} outside [{lower}, {upper}]")
    return out

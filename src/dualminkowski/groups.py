"""Finite orthogonal symmetry groups: enumeration, certificates, orbits.

A group is stored as an explicit list of orthogonal matrices closed under
product and inverse. The two properties the solver needs from a group are
checked numerically and recorded in a certificate: no nonzero fixed vector
(equivalently the group-averaging operator vanishes) and absence of the
central negation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .sphere import build_grid, sphere_area

__all__ = [
    "OrthogonalGroup",
    "GroupCertificate",
    "enumerate_group",
    "standard_group",
    "simplex_symmetry",
    "simplex_rotation",
    "cube_rotation",
    "cyclic_rotation",
    "direct_sum",
    "certify",
    "orbits",
    "symmetrize_density",
    "invariant_directions",
]

ORTHOGONALITY_TOL = 1e-10
MATCH_TOL = 1e-8  # matrix dedup/closure tolerance; see module notes


@dataclass(frozen=True)
class OrthogonalGroup:
    """A finite subgroup of O(n) as an enumerated element list.

    elements has shape (order, n, n); element 0 is always the identity.
    """

    dim: int
    elements: np.ndarray
    generator_indices: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        elems = np.ascontiguousarray(np.asarray(self.elements, dtype=float))
        if elems.ndim != 3 or elems.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"elements must have shape (k, {self.dim}, {self.dim})")
        eye = np.eye(self.dim)
        ortho_defect = np.max(
            np.abs(np.einsum("kij,kil->kjl", elems, elems) - eye[None])
        )
        if ortho_defect > ORTHOGONALITY_TOL:
            raise ValueError(f"element fails orthogonality by {ortho_defect:.3e}")
        if _match_index(elems, eye) is None:
            raise ValueError("identity element missing")
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """All images g @ p for g in the group; shape (order, N, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("kij,nj->kni", self.elements, pts)

    def check_closure(self, tol: float = MATCH_TOL) -> float:
        """Max distance from any product gh to its nearest element."""
        worst = 0.0
        for g in self.elements:
            products = np.einsum("ij,kjl->kil", g, self.elements)
            for prod in products:
                dist = np.min(np.max(np.abs(self.elements - prod[None]), axis=(1, 2)))
                worst = max(worst, float(dist))
        if worst > tol:
            raise ValueError(f"element list not closed under product: {worst:.3e}")
        return worst


@dataclass(frozen=True)
class GroupCertificate:
    """Numerical certificate of the two solver-relevant group properties."""

    has_nonzero_fixed_point: bool
    contains_negation: bool
    order: int
    averaging_norm: float

    def admissible_for_solving(self) -> bool:
        return not self.has_nonzero_fixed_point

    def admissible_for_asymmetric_construction(self) -> bool:
        return not self.has_nonzero_fixed_point and not self.contains_negation


def _match_index(stack: np.ndarray, matrix: np.ndarray, tol: float = MATCH_TOL):
    if stack.shape[0] == 0:
        return None
    dist = np.max(np.abs(stack - matrix[None]), axis=(1, 2))
    i = int(np.argmin(dist))
    return i if dist[i] <= tol else None


def enumerate_group(generators, max_order: int = 10000, label: str = "") -> OrthogonalGroup:
    """Breadth-first closure of a generating set of orthogonal matrices.

    Raises if the closure exceeds max_order elements, which signals either an
    infinite group or generators too far from orthogonal for the 1e-8
    matching tolerance.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must share one square shape")
        if np.max(np.abs(g.T @ g - np.eye(n))) > ORTHOGONALITY_TOL:
            raise ValueError("generator is not orthogonal within 1e-10")
    # inverses (= transposes) keep the closure a group even for one-sided words
    gens = gens + [g.T.copy() for g in gens]

    elements = [np.eye(n)]
    stack = np.array(elements)
    frontier = [0]
    gen_indices: list[int] = []
    while frontier:
        new_frontier = []
        for idx in frontier:
            for g in gens:
                prod = g @ elements[idx]
                if _match_index(stack, prod) is None:
                    elements.append(prod)
                    stack = np.asarray(elements)
                    new_frontier.append(len(elements) - 1)
                    if len(elements) > max_order:
                        raise ValueError(
                            f"group closure exceeded max_order={max_order}; "
                            "group may be infinite or tolerance too tight"
                        )
        frontier = new_frontier
    for g in generators:
        gen_indices.append(_match_index(stack, np.asarray(g, dtype=float)))
    return OrthogonalGroup(dim=n, elements=stack,
                           generator_indices=tuple(gen_indices), label=label)


def _simplex_vertex_basis(m: int) -> np.ndarray:
    """Orthonormal basis (as an (m+1) x m matrix) of the sum-zero hyperplane."""
    a = np.eye(m + 1) - np.full((m + 1, m + 1), 1.0 / (m + 1))
    # columns of the hyperplane's orthonormal basis via SVD of the projector
    u, s, _ = np.linalg.svd(a)
    return u[:, :m]


def simplex_symmetry(m: int) -> OrthogonalGroup:
    """Full symmetry group of a centered regular simplex in R^m (order (m+1)!)."""
    if m < 2:
        raise ValueError("simplex symmetry needs m >= 2")
    basis = _simplex_vertex_basis(m)
    elems = []
    for perm in itertools.permutations(range(m + 1)):
        p = np.eye(m + 1)[list(perm)]
        elems.append(basis.T @ p @ basis)
    elems = _orthonormalize_stack(np.array(elems))
    return OrthogonalGroup(dim=m, elements=elems, label=f"simplex-symmetry({m})")


def simplex_rotation(m: int) -> OrthogonalGroup:
    """Orientation-preserving simplex symmetries (order (m+1)!/2)."""
    full = simplex_symmetry(m)
    keep = [g for g in full.elements if np.linalg.det(g) > 0]
    return OrthogonalGroup(dim=m, elements=np.array(keep),
                           label=f"simplex-rotation({m})")


def cube_rotation(m: int) -> OrthogonalGroup:
    """Rotation group of the cube [-1,1]^m for odd m >= 3 (excludes -I)."""
    if m < 3 or m % 2 == 0:
        raise ValueError("cube rotation group requires odd m >= 3 to exclude -I")
    elems = []
    for perm in itertools.permutations(range(m)):
        p = np.eye(m)[list(perm)]
        for signs in itertools.product((1.0, -1.0), repeat=m):
            g = p * np.array(signs)[:, None]
            if np.linalg.det(g) > 0:
                elems.append(g)
    return OrthogonalGroup(dim=m, elements=np.array(elems),
                           label=f"cube-rotation({m})")


def cyclic_rotation(order: int) -> OrthogonalGroup:
    """Planar rotations by multiples of 2*pi/order, odd order >= 3 (no -I)."""
    if order < 3 or order % 2 == 0:
        raise ValueError("cyclic group here requires odd order >= 3 to exclude -I")
    elems = []
    for k in range(order):
        t = 2.0 * math.pi * k / order
        elems.append(np.array([[math.cos(t), -math.sin(t)],
                               [math.sin(t), math.cos(t)]]))
    return OrthogonalGroup(dim=2, elements=np.array(elems), label=f"cyclic({order})")


def direct_sum(parts: list[OrthogonalGroup], label: str = "") -> OrthogonalGroup:
    """Block-diagonal product group acting on the orthogonal sum of the factors."""
    if not parts:
        raise ValueError("need at least one factor")
    n = sum(p.dim for p in parts)
    elems = []
    for combo in itertools.product(*[p.elements for p in parts]):
        g = np.zeros((n, n))
        ofs = 0
        for block in combo:
            k = block.shape[0]
            g[ofs:ofs + k, ofs:ofs + k] = block
            ofs += k
        elems.append(g)
    label = label or "(+)".join(p.label or "?" for p in parts)
    return OrthogonalGroup(dim=n, elements=np.array(elems), label=label)


def _orthonormalize_stack(elems: np.ndarray) -> np.ndarray:
    """Snap near-orthogonal matrices to exactly orthogonal ones (polar factor)."""
    u, _, vt = np.linalg.svd(elems)
    return u @ vt


def standard_group(name: str, n: int | None = None, **params) -> OrthogonalGroup:
    """Catalog constructor for the fixed-point-free groups used throughout.

    Names: "simplex-symmetry" (m), "simplex-rotation" (m), "cube-rotation"
    (odd m >= 3), "cyclic" (odd order >= 3, acts on R^2), "negation" (n),
    "direct-sum" (parts = list of (name, params) pairs).
    Every output except "negation" is checked to have no nonzero fixed point;
    "negation" = {I, -I} is kept for the origin-symmetric special case.
    """
    if name == "simplex-symmetry":
        group = simplex_symmetry(params.get("m", n))
    elif name == "simplex-rotation":
        group = simplex_rotation(params.get("m", n))
    elif name == "cube-rotation":
        group = cube_rotation(params.get("m", n))
    elif name == "cyclic":
        group = cyclic_rotation(params["order"])
    elif name == "negation":
        if n is None:
            raise ValueError("negation group needs the dimension n")
        group = OrthogonalGroup(dim=n, elements=np.array([np.eye(n), -np.eye(n)]),
                                label=f"negation({n})")
        return group
    elif name == "direct-sum":
        parts = [standard_group(p_name, **p_params)
                 for p_name, p_params in params["parts"]]
        group = direct_sum(parts)
    else:
        raise ValueError(f"unknown group name {name!r}")
    cert = certify(group)
    if cert.has_nonzero_fixed_point:
        raise ValueError(f"{group.label}: construction yielded a fixed vector")
    if name != "direct-sum" and cert.contains_negation:
        raise ValueError(f"{group.label}: construction unexpectedly contains -I")
    return group


def certify(group: OrthogonalGroup) -> GroupCertificate:
    """Certificate from the averaging operator P = |G|^-1 sum_g g.

    P is the orthogonal projection onto the fixed subspace, so P = 0 exactly
    when no nonzero fixed vector exists.
    """
    avg = group.elements.mean(axis=0)
    avg_norm = float(np.max(np.abs(avg)))
    neg = np.eye(group.dim) * -1.0
    contains_negation = _match_index(group.elements, neg) is not None
    return GroupCertificate(
        has_nonzero_fixed_point=avg_norm > 1e-8,
        contains_negation=contains_negation,
        order=group.order,
        averaging_norm=avg_norm,
    )


def orbits(group: OrthogonalGroup, directions: np.ndarray,
           merge_tol: float = 1e-6) -> list[list[int]]:
    """Partition direction indices into group orbits.

    Two directions fall in one orbit when some group element maps one onto the
    other within merge_tol (Euclidean). Each orbit list starts with its
    representative (smallest index). Raises if two distinct input directions
    are closer than merge_tol, since matching would then be ambiguous.
    """
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != group.dim:
        raise ValueError(f"directions must have shape (N, {group.dim})")
    norms = np.linalg.norm(dirs, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise ValueError("directions must be unit vectors within 1e-10")
    m = dirs.shape[0]
    gram = dirs @ dirs.T
    np.fill_diagonal(gram, -1.0)
    closest = math.sqrt(max(0.0, 2.0 - 2.0 * float(np.max(gram))))
    if closest < merge_tol:
        a, b = np.unravel_index(int(np.argmax(gram)), gram.shape)
        raise ValueError(
            f"directions {a} and {b} are {closest:.3e} apart, below merge_tol"
        )

    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in group.elements:
        images = dirs @ g.T
        dots = images @ dirs.T
        nearest = np.argmax(dots, axis=1)
        dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots[np.arange(m), nearest]))
        for i in range(m):
            if dist[i] <= merge_tol:
                ri, rj = find(i), find(int(nearest[i]))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    buckets: dict[int, list[int]] = {}
    for i in range(m):
        buckets.setdefault(find(i), []).append(i)
    return [sorted(v) for _, v in sorted(buckets.items())]


def symmetrize_density(group: OrthogonalGroup, f):
    """Group-average a density: u -> |G|^-1 sum_g f(g u).

    The output is exactly invariant node-wise because precomposing with any
    group element only permutes the summand set.
    """
    elements = group.elements

    def averaged(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        acc = np.zeros(pts.shape[0])
        for g in elements:
            acc += np.asarray(f(pts @ g.T), dtype=float)
        return acc / elements.shape[0]

    return averaged


# ---------------------------------------------------------------------------
# invariant direction sets


def _snap_to_stabilizer(group: OrthogonalGroup, seed: np.ndarray,
                        tol: float = 1e-6) -> np.ndarray:
    """Project a seed onto the exact fixed subspace of its approximate
    stabilizer, so its orbit images cluster to machine precision."""
    u = seed / np.linalg.norm(seed)
    for _ in range(2):
        images = group.apply(u[None])[:, 0, :]
        stab = images[np.linalg.norm(images - u[None], axis=1) <= tol]
        avg = stab.mean(axis=0)
        norm = np.linalg.norm(avg)
        if norm < 1e-9:
            return u
        u = avg / norm
    return u


def _orbit_points(group: OrthogonalGroup, seed: np.ndarray,
                  tol: float = 1e-9) -> np.ndarray:
    """Deduplicated orbit {g @ seed} of a stabilizer-snapped seed."""
    u = _snap_to_stabilizer(group, np.asarray(seed, dtype=float))
    images = group.apply(u[None])[:, 0, :]
    kept: list[np.ndarray] = []
    for img in images:
        if not kept or np.min(np.linalg.norm(np.array(kept) - img, axis=1)) > tol:
            kept.append(img)
    return np.array(kept)


def _special_seeds(group: OrthogonalGroup) -> list[np.ndarray]:
    """Candidate seeds with nontrivial stabilizer: unit eigenvectors (and
    plane combinations) of the +1 eigenspaces of non-identity elements."""
    seeds: list[np.ndarray] = []
    eye = np.eye(group.dim)
    golden = 0.6180339887498949
    for g in group.elements:
        if np.max(np.abs(g - eye)) <= MATCH_TOL:
            continue
        vals, vecs = np.linalg.eig(g)
        fixed = [np.real(vecs[:, j]) for j in range(len(vals))
                 if abs(vals[j] - 1.0) < 1e-9 and np.max(np.abs(np.imag(vecs[:, j]))) < 1e-9]
        fixed = [v / np.linalg.norm(v) for v in fixed if np.linalg.norm(v) > 1e-9]
        for v in fixed:
            seeds.extend([v, -v])
        if len(fixed) >= 2:
            # generic points of a fixed plane still shrink the orbit; spread
            # several candidates along the plane so packing can avoid clashes
            for k in range(1, 9):
                t = 2.0 * math.pi * ((k * golden) % 1.0)
                w = math.cos(t) * fixed[0] + math.sin(t) * fixed[1]
                seeds.append(w / np.linalg.norm(w))
    return seeds


def _candidate_stream(n: int, m: int, seed: int) -> np.ndarray:
    """m quasi-uniform full-sphere seed candidates (deterministic per seed)."""
    from .sphere import fibonacci_sphere_nodes

    if n == 2:
        theta = 2.0 * math.pi * (np.arange(m) * 0.6180339887498949 % 1.0)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        return fibonacci_sphere_nodes(m)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def invariant_directions(group: OrthogonalGroup, count: int,
                         seed: int = 0) -> np.ndarray:
    """Build an exactly group-stable set of `count` quasi-uniform unit vectors.

    The set is assembled as a union of full orbits: generic orbits (size =
    group order for free seeds) packed greedily for spread, topped up with
    small orbits seeded on symmetry axes or mirror planes so the total hits
    `count` exactly. Raises when no orbit-size combination can reach `count`.
    """
    n = group.dim
    if count < 1:
        raise ValueError("count must be positive")

    stream = _candidate_stream(n, max(8 * count // max(group.order, 1), 256),
                               seed)
    special: list[np.ndarray] = []  # small orbits, deduped as point sets
    for s in _special_seeds(group):
        orb = _orbit_points(group, s)
        if any(orb.shape[0] == o.shape[0]
               and np.max(np.abs(_sorted_rows(orb) - _sorted_rows(o))) < 1e-7
               for o in special):
            continue
        special.append(orb)
    special_sizes = [o.shape[0] for o in special]

    generic_size = _orbit_points(group, stream[0]).shape[0]

    def compose(target: int) -> list[int] | None:
        """Indices into `special` (plus -1 markers for generic) summing to target."""
        best: dict[int, list[int]] = {0: []}
        for idx, size in enumerate(special_sizes):
            for total in sorted(best):
                nxt = total + size
                if nxt <= target and nxt not in best and idx not in best[total]:
                    best[nxt] = best[total] + [idx]
        for n_generic in range(target // generic_size, -1, -1):
            rem = target - n_generic * generic_size
            if rem in best:
                return best[rem] + [-1] * n_generic
        return None

    plan = compose(count)
    if plan is None:
        reachable = [s for s in range(count, -1, -1) if compose(s)]
        raise ValueError(
            f"cannot reach exactly {count} directions with orbit sizes "
            f"(generic {generic_size}, special {sorted(set(special_sizes))}); "
            f"nearest reachable below: {reachable[0] if reachable else 0}"
        )

    accepted: list[np.ndarray] = []
    points_so_far = np.zeros((0, n))

    def clearance(orb: np.ndarray) -> float:
        """Min distance of orbit points to placed points and to each other."""
        internal = np.inf
        if orb.shape[0] > 1:
            gram = orb @ orb.T
            np.fill_diagonal(gram, -1.0)
            internal = math.sqrt(max(0.0, 2.0 - 2.0 * float(np.max(gram))))
        if not points_so_far.shape[0]:
            return internal
        gram = orb @ points_so_far.T
        external = math.sqrt(max(0.0, 2.0 - 2.0 * float(np.max(gram))))
        return min(internal, external)

    def add_orbit(orb: np.ndarray):
        nonlocal points_so_far
        accepted.append(orb)
        points_so_far = np.vstack([points_so_far, orb])

    # place planned small orbits first, swapping in the same-size alternative
    # with the most clearance whenever candidates compete
    for idx in plan:
        if idx < 0:
            continue
        size = special_sizes[idx]
        pool = [special[idx]] + [o for j, o in enumerate(special)
                                 if j != idx and special_sizes[j] == size]
        best = max(pool, key=clearance)
        if clearance(best) < 1e-7:
            raise ValueError("small symmetry orbits collide irreparably")
        add_orbit(best)

    # generic orbits: greedy packing over precomputed candidate orbits. Two
    # heuristics are available (fill the deepest coverage hole / stay farthest
    # from placed points); for few orbits both are run and the one with the
    # smaller covering radius wins, for many orbits only the fast one runs.
    n_generic = sum(1 for idx in plan if idx < 0)
    if n_generic:
        target = min(max(40 * n_generic, 400), 4000)
        seeds = _candidate_stream(n, target, seed)
        cands = [orb for cand in seeds
                 if (orb := _orbit_points(group, cand)).shape[0] == generic_size]
        if len(cands) < n_generic:
            raise ValueError("not enough generic orbit candidates")
        stack = np.array(cands)  # (K, generic_size, n)
        sep_floor = 0.2 * (sphere_area(n) / max(count, 1)) ** (1.0 / (n - 1))
        clear0 = np.array([clearance(o) for o in cands])
        probe = _candidate_stream(n, 4096, seed + 1)

        def covering_of(selection: list[int]) -> float:
            pts = np.vstack([points_so_far] + [stack[i] for i in selection])
            d2 = np.min(2.0 - 2.0 * probe @ pts.T, axis=1)
            return float(np.max(d2))

        choices = [_pack_farthest(stack, clear0, sep_floor, n_generic)]
        if n_generic <= 64:
            choices.append(_pack_coverage(stack, clear0, sep_floor, n_generic,
                                          probe, points_so_far))
        valid = [c for c in choices if c is not None]
        if not valid:
            raise ValueError("could not place generic orbits")
        for i in min(valid, key=covering_of):
            add_orbit(stack[i])

    dirs = np.vstack(accepted)
    if dirs.shape[0] != count:
        raise RuntimeError(f"orbit plan placed {dirs.shape[0]} directions, "
                           f"expected {count}")
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _pack_farthest(stack: np.ndarray, clear0: np.ndarray, sep_floor: float,
                   rounds: int) -> list[int] | None:
    """Pick orbits one by one, always the one with maximal clearance."""
    score = clear0.copy()
    picked: list[int] = []
    for _ in range(rounds):
        best = int(np.argmax(score))
        if score[best] <= sep_floor:
            return None
        picked.append(best)
        chosen = stack[best]
        score[best] = -np.inf
        grams = np.einsum("ksn,tn->kst", stack, chosen)
        d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * grams.max(axis=(1, 2))))
        score = np.minimum(score, np.where(np.isfinite(score), d, -np.inf))
    return picked


def _pack_coverage(stack: np.ndarray, clear0: np.ndarray, sep_floor: float,
                   rounds: int, probe: np.ndarray,
                   placed: np.ndarray) -> list[int] | None:
    """Pick orbits one by one, always the one minimizing the covering radius
    of probe points (greedy hole filling)."""
    k, s, _ = stack.shape
    cand_d2 = np.empty((probe.shape[0], k))
    chunk = max(1, 2_000_000 // (probe.shape[0] * s))
    for a in range(0, k, chunk):
        grams = np.einsum("pn,ksn->pks", probe, stack[a:a + chunk])
        cand_d2[:, a:a + chunk] = 2.0 - 2.0 * grams.max(axis=2)
    if placed.shape[0]:
        mind2 = np.min(2.0 - 2.0 * probe @ placed.T, axis=1)
    else:
        mind2 = np.full(probe.shape[0], np.inf)
    alive = clear0 > sep_floor
    picked: list[int] = []
    for _ in range(rounds):
        if not np.any(alive):
            return None
        cover = np.max(np.minimum(mind2[:, None], cand_d2[:, alive]), axis=0)
        best = int(np.flatnonzero(alive)[int(np.argmin(cover))])
        picked.append(best)
        chosen = stack[best]
        mind2 = np.minimum(mind2, cand_d2[:, best])
        alive[best] = False
        grams = np.einsum("ksn,tn->kst", stack, chosen)
        d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * grams.max(axis=(1, 2))))
        alive &= d > sep_floor
    return picked


def _sorted_rows(arr: np.ndarray) -> np.ndarray:
    key = np.lexsort(np.round(arr, 6).T)
    return arr[key]


def probe_grid(n: int, seed: int = 0):
    """Shared moderate-size grid used for invariance and positivity probes."""
    counts = {2: 720, 3: 2000}
    return build_grid(n, counts.get(n, 4000), seed=seed)

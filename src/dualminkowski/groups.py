"""Finite orthogonal symmetry groups: enumeration, certificates, orbits.

A group is stored as an explicit list of orthogonal matrices closed under
product and inverse. The two properties the solver needs from a group are
checked numerically and recorded in a certificate: no nonzero fixed vector
(equivalently the group-averaging operator vanishes) and absence of the
central negation.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sphere import (fibonacci_sphere_nodes, first_of_clusters, greedy_keep,
                     near_pairs, nearest_within, product_blocks,
                     require_finite, row_slices, sphere_area)

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
    "OrbitPartition",
    "image_gap",
    "symmetrize_density",
    "invariant_directions",
]

ORTHOGONALITY_TOL = 1e-10
MATCH_TOL = 1e-8  # matrix dedup/closure tolerance; see module notes
MERGE_TOL = 1e-6  # directions this close are one point of an orbit
STABLE_TOL = 1e-9  # a group-stable set has a direction this close to each g @ u
MAX_ORDER = 10000  # enumerate_group's default bound on the closure
# _orbits: images of a seed within STABILIZER_TOL of it are its images under
# the approximate stabilizer, and an image within ORBIT_DEDUPE_TOL of an
# earlier kept image of the same orbit is dropped
STABILIZER_TOL = 1e-6
ORBIT_DEDUPE_TOL = 1e-9


@dataclass(frozen=True)
class OrthogonalGroup:
    """A finite subgroup of O(n) as an enumerated element list.

    elements has shape (order, n, n); element 0 is always the identity.
    """

    dim: int
    elements: np.ndarray
    label: str = ""

    def __post_init__(self):
        elems = np.ascontiguousarray(np.asarray(self.elements, dtype=float))
        if elems.ndim != 3 or elems.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"elements must have shape (k, {self.dim}, {self.dim})")
        require_finite("elements", elems)
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


@dataclass(frozen=True)
class GroupCertificate:
    """Numerical certificate of the two solver-relevant group properties."""

    has_nonzero_fixed_point: bool
    contains_negation: bool
    order: int
    averaging_norm: float

    def admissible_for_asymmetric_construction(self) -> bool:
        return not self.has_nonzero_fixed_point and not self.contains_negation


def _match_index(stack: np.ndarray, matrix: np.ndarray):
    if stack.shape[0] == 0:
        return None
    dist = np.max(np.abs(stack - matrix[None]), axis=(1, 2))
    i = int(np.argmin(dist))
    return i if dist[i] <= MATCH_TOL else None


def enumerate_group(generators, max_order: int = MAX_ORDER,
                    label: str = "") -> OrthogonalGroup:
    """Breadth-first closure of a generating set of orthogonal matrices.

    Raises if the closure exceeds max_order elements, which signals either an
    infinite group or generators too far from orthogonal for the 1e-8
    matching tolerance.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (n, n):
            raise ValueError("generators must share one square shape")
        require_finite(f"generator {i}", g)
        if np.max(np.abs(g.T @ g - np.eye(n))) > ORTHOGONALITY_TOL:
            raise ValueError("generator is not orthogonal within 1e-10")
    # inverses (= transposes) keep the closure a group even for one-sided words
    gens = gens + [g.T.copy() for g in gens]

    # one slot past max_order holds the element that overflows the bound
    stack = np.empty((max_order + 1, n, n))
    stack[0] = np.eye(n)
    count = 1
    # The found elements sorted by a generic linear key <w, g>: entries
    # within MATCH_TOL of each other have keys within MATCH_TOL * |w|_1
    # (widened against the rounding of the keys), so only the elements in
    # that key window can match a product.
    weights = np.sqrt(np.arange(2.0, n * n + 2.0)).reshape(n, n)
    window = 2.0 * MATCH_TOL * float(np.sum(weights))
    keys, order = [float(np.sum(weights * stack[0]))], [0]
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            for g in gens:
                prod = g @ stack[idx]
                key = float(np.sum(weights * prod))
                near = order[bisect.bisect_left(keys, key - window):
                             bisect.bisect_right(keys, key + window)]
                if _match_index(stack[near], prod) is None:
                    stack[count] = prod
                    at = bisect.bisect_left(keys, key)
                    keys.insert(at, key)
                    order.insert(at, count)
                    new_frontier.append(count)
                    count += 1
                    if count > max_order:
                        raise ValueError(
                            f"group closure exceeded max_order={max_order}; "
                            "group may be infinite or tolerance too tight"
                        )
        frontier = new_frontier
    return OrthogonalGroup(dim=n, elements=stack[:count].copy(), label=label)


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


def direct_sum(parts: list[OrthogonalGroup]) -> OrthogonalGroup:
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
    return OrthogonalGroup(dim=n, elements=np.array(elems),
                           label="(+)".join(p.label or "?" for p in parts))


def _orthonormalize_stack(elems: np.ndarray) -> np.ndarray:
    """Snap near-orthogonal matrices to exactly orthogonal ones (polar factor)."""
    u, _, vt = np.linalg.svd(elems)
    return u @ vt


def standard_group(name: str, n: int | None = None, **params) -> OrthogonalGroup:
    """Catalog constructor for the groups used throughout.

    Names: "simplex-symmetry" (m), "simplex-rotation" (m), "cube-rotation"
    (odd m >= 3), "cyclic" (odd order >= 3, acts on R^2), "negation" (n),
    "direct-sum" (parts = list of (name, params) pairs).
    The group is returned as built, with no certificate: each command checks
    its hypotheses once, solve in solver.ProblemSpec and construct in
    constructions._checked_group. "negation" = {I, -I} is the
    origin-symmetric special case; it has no nonzero fixed vector but
    contains -I, so construct rejects it.
    """
    if name == "simplex-symmetry":
        return simplex_symmetry(params.get("m", n))
    if name == "simplex-rotation":
        return simplex_rotation(params.get("m", n))
    if name == "cube-rotation":
        return cube_rotation(params.get("m", n))
    if name == "cyclic":
        return cyclic_rotation(params["order"])
    if name == "negation":
        if n is None:
            raise ValueError("negation group needs the dimension n")
        return OrthogonalGroup(dim=n, elements=np.array([np.eye(n), -np.eye(n)]),
                               label=f"negation({n})")
    if name == "direct-sum":
        return direct_sum([standard_group(p_name, **p_params)
                           for p_name, p_params in params["parts"]])
    raise ValueError(f"unknown group name {name!r}")


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


class OrbitPartition(list):
    """The orbits of a direction set, as lists of direction indices, and
    stable: whether every image g @ u lies within STABLE_TOL of a direction,
    read from the image match that built the orbits."""

    def __init__(self, parts, stable: bool):
        super().__init__(parts)
        self.stable = stable


def orbits(group: OrthogonalGroup, directions: np.ndarray) -> list[list[int]]:
    """Partition direction indices into group orbits.

    Two directions fall in one orbit when some group element maps one onto the
    other within MERGE_TOL (Euclidean). Each orbit list starts with its
    representative (smallest index). Raises if two distinct input directions
    are closer than MERGE_TOL, since matching would then be ambiguous.

    One sorted search (sphere.nearest_within) matches every image g @ u to
    its nearest direction within MERGE_TOL; the result is an OrbitPartition,
    which also says whether the set is group-stable within STABLE_TOL.
    """
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != group.dim:
        raise ValueError(f"directions must have shape (N, {group.dim})")
    norms = np.linalg.norm(dirs, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise ValueError("directions must be unit vectors within 1e-10")
    m = dirs.shape[0]
    a, b, dist = near_pairs(dirs, MERGE_TOL, None)
    if a.size and np.min(dist) < MERGE_TOL:
        k = np.lexsort((b, a, dist))[0]  # the closest pair, first on ties
        raise ValueError(f"directions {a[k]} and {b[k]} are {dist[k]:.3e} "
                         f"apart, below MERGE_TOL = {MERGE_TOL:g}")
    images = group.apply(dirs).reshape(-1, group.dim)
    nearest, gap = nearest_within(dirs, images, MERGE_TOL)
    near = nearest >= 0
    src, dst = np.tile(np.arange(m), group.order)[near], nearest[near]
    # connected components of the matches: every direction takes the least
    # label of its matches, then the label of its label, until nothing moves
    label = np.arange(m)
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[dst])
        np.minimum.at(low, dst, label[src])
        low = low[low]
        if np.array_equal(low, label):
            return OrbitPartition(
                [np.flatnonzero(label == k).tolist() for k in np.unique(label)],
                stable=bool(np.all(gap <= STABLE_TOL)))
        label = low


def _largest_gap(points: np.ndarray, targets: np.ndarray) -> float:
    """Largest distance from a row of points to its nearest row of targets,
    the one of largest product (pad columns left out), by the row norm of
    the difference, exact where 2 - 2 <x, y> would cancel."""
    worst = 0.0
    for start, prods in product_blocks(points, targets):
        part = points[start:start + len(prods)]
        near = targets[np.argmax(prods[:, :len(targets)], axis=1)]
        worst = max(worst, float(np.max(np.linalg.norm(part - near, axis=1))))
    return worst


def image_gap(group: OrthogonalGroup, directions: np.ndarray) -> float:
    """Largest distance from an image g @ u to its nearest direction."""
    dirs = np.asarray(directions, dtype=float)
    return _largest_gap(group.apply(dirs).reshape(-1, group.dim), dirs)


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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-equal to np.linalg.norm of the row
    alone: both take the square root of one dot product per row, and a
    stacked (1, n) @ (n, 1) matmul makes that dot call row by row.
    np.linalg.norm along an axis sums differently and can differ in the
    last bit, and the direction sets are pinned to the per-vector norm."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


def _images_near(group: OrthogonalGroup, u: np.ndarray):
    """Images g @ u of every row of u, shape (rows, order, n), and which of
    them lie within STABILIZER_TOL of their row."""
    images = np.einsum("kij,mj->mki", group.elements, u)
    gaps = np.linalg.norm(images - u[:, None], axis=2)
    return images, gaps <= STABILIZER_TOL


def _orbits(group: OrthogonalGroup, seeds) -> list[np.ndarray]:
    """Deduplicated orbit {g @ u} of every seed row, built for all seeds at once.

    Each seed is normalised and then, twice, replaced by the normalised mean
    of its images within STABILIZER_TOL (the images under its approximate
    stabilizer). That projects it onto the exact fixed subspace of the
    stabilizer, so its orbit images cluster to machine precision. Images
    within ORBIT_DEDUPE_TOL of an earlier kept image of the same orbit are
    dropped.
    """
    u = np.asarray(seeds, dtype=float).reshape(-1, group.dim)
    u = u / _row_norms(u)[:, None]
    snapping = np.ones(u.shape[0], dtype=bool)
    for _ in range(2):
        images, near = _images_near(group, u)
        # -0.0 is the exact additive identity, so the masked sum equals the
        # sum over the stabilizer images alone; the identity's image is
        # summed too, and it differs from u in the last bit
        total = np.where(near[..., None], images, -0.0).sum(axis=1)
        avg = total / near.sum(axis=1)[:, None]
        norm = _row_norms(avg)
        snapping &= norm >= 1e-9
        u = np.divide(avg, norm[:, None], out=u, where=snapping[:, None])
    images, _ = _images_near(group, u)
    flat = images.reshape(-1, group.dim)
    keep = first_of_clusters(flat, ORBIT_DEDUPE_TOL,
                             np.repeat(np.arange(len(u)), group.order))
    ends = np.cumsum(keep.reshape(len(u), group.order).sum(axis=1))
    # views into one array, the last piece empty: a copy per seed would
    # scatter a thousand small blocks over the heap and raise peak memory
    return np.split(flat[keep], ends)[:-1]


def _distinct_special_orbits(group: OrthogonalGroup) -> list[np.ndarray]:
    """The _orbits of the _special_seeds, each orbit once, in seed order.

    Two orbits are equal or disjoint, so one point decides whether an orbit
    was met before: an orbit is kept when its first point lies at least
    1e-7 from every point of the kept orbits before it. That is an
    in-order greedy rule over the pairs (earlier orbit, later orbit) where
    a point of the earlier one lies within 1e-7 of the first point of the
    later one.
    """
    orbs = _orbits(group, _special_seeds(group))
    sizes = np.array([o.shape[0] for o in orbs], dtype=np.intp)
    owner = np.repeat(np.arange(len(orbs)), sizes)
    starts = np.cumsum(sizes) - sizes
    points = np.concatenate(orbs) if orbs else np.zeros((0, group.dim))
    i, j, dist = near_pairs(points, 1e-7, None)
    hit = (dist < 1e-7) & (starts[owner[j]] == j) & (owner[i] < owner[j])
    keep = greedy_keep(len(orbs), owner[i[hit]], owner[j[hit]])
    return [o for o, kept in zip(orbs, keep) if kept]


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

    special = _distinct_special_orbits(group)
    special_sizes = [o.shape[0] for o in special]

    generic_size = group.order  # a generic point has a trivial stabilizer

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
        nearest = next(s for s in range(count, -1, -1)
                       if compose(s) is not None)
        raise ValueError(
            f"cannot reach exactly {count} directions with orbit sizes "
            f"(generic {generic_size}, special {sorted(set(special_sizes))}); "
            f"nearest reachable below: {nearest}"
        )

    accepted: list[np.ndarray] = []
    points_so_far = np.zeros((0, n))

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
        clear = _clearances(np.array(pool), points_so_far)
        best = int(np.argmax(clear))  # the first on ties
        if clear[best] < 1e-7:
            raise ValueError("small symmetry orbits collide irreparably")
        add_orbit(pool[best])

    # generic orbits: greedy packing over precomputed candidate orbits. Two
    # heuristics are available (fill the deepest coverage hole / stay farthest
    # from placed points); for few orbits both are run and the one with the
    # smaller covering radius wins, for many orbits only the fast one runs.
    n_generic = sum(1 for idx in plan if idx < 0)
    if n_generic:
        target = min(max(40 * n_generic, 400), 4000)
        seeds = _candidate_stream(n, target, seed)
        cands = [orb for orb in _orbits(group, seeds)
                 if orb.shape[0] == generic_size]
        if len(cands) < n_generic:
            raise ValueError("not enough generic orbit candidates")
        stack = np.array(cands)  # (K, generic_size, n)
        sep_floor = 0.2 * (sphere_area(n) / max(count, 1)) ** (1.0 / (n - 1))
        clear0 = _clearances(stack, points_so_far)
        probe = _candidate_stream(n, 4096, seed + 1)

        def covering_of(selection: list[int]) -> float:
            return float(np.max(_nearest_d2(probe, np.vstack(
                [points_so_far] + [stack[i] for i in selection]))))

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


# Greedy packing compares distances between unit vectors, and near-ties are
# common (n = 2 orbits on a circle tie exactly). Every product the packers
# compare comes from product_blocks, whose values do not depend on the
# block or the BLAS thread count, so the picks do not either.


def _chord(gram):
    """Distance between unit vectors with inner product gram."""
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * gram))


def _nearest_d2(probe: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Squared distance from each probe row to its nearest row of pts.

    2 - 2x stays monotone after rounding, so the largest product gives the
    smallest distance bit for bit. The products come from product_blocks,
    the pad columns left out: a zero pad would be the largest product of a
    probe farther than a right angle from every point.
    """
    out = np.empty(len(probe))
    for start, prods in product_blocks(probe, pts):
        out[start:start + len(prods)] = \
            2.0 - 2.0 * np.max(prods[:, :len(pts)], axis=1)
    return out


def _clearances(stack: np.ndarray, placed: np.ndarray) -> np.ndarray:
    """Least distance from each orbit of stack (K, s, n) to the placed
    points (t, n) and between its own points; inf for a one-point orbit
    with nothing placed.

    A stacked matmul makes, orbit by orbit, the BLAS call that the product
    of one orbit makes, so every value equals the one-orbit value bit for
    bit. The chord is monotone after rounding, so the chord of the largest
    product is the least of the chords.
    """
    k, s, _ = stack.shape
    top = np.full(k, -np.inf)
    for blk in row_slices(k, s * (s + placed.shape[0])):
        part = stack[blk]
        if s > 1:
            gram = np.matmul(part, part.transpose(0, 2, 1))
            gram[:, np.arange(s), np.arange(s)] = -1.0
            top[blk] = gram.max(axis=(1, 2))
        if placed.shape[0]:
            outer = np.matmul(part, placed.T).max(axis=(1, 2))
            np.maximum(top[blk], outer, out=top[blk])
    return _chord(top)


def _separation(firsts: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Distance from each candidate orbit to a chosen orbit (t, n) of the
    same element list, taken from the candidate's first point (firsts, one
    row per candidate): in exact arithmetic g x is as near to an orbit as
    x is."""
    return np.sqrt(np.maximum(0.0, _nearest_d2(firsts, chosen)))


def _pack_farthest(stack: np.ndarray, clear0: np.ndarray, sep_floor: float,
                   rounds: int) -> list[int] | None:
    """Pick orbits one by one, always the one with maximal clearance."""
    score = clear0.copy()
    firsts = np.ascontiguousarray(stack[:, 0])
    picked: list[int] = []
    for _ in range(rounds):
        best = int(np.argmax(score))
        if score[best] <= sep_floor:
            return None
        picked.append(best)
        score[best] = -np.inf
        np.minimum(score, _separation(firsts, stack[best]), out=score)
    return picked


def _pack_coverage(stack: np.ndarray, clear0: np.ndarray, sep_floor: float,
                   rounds: int, probe: np.ndarray,
                   placed: np.ndarray) -> list[int] | None:
    """Pick orbits one by one, always the one minimizing the covering radius
    of probe points (greedy hole filling)."""
    k = stack.shape[0]
    p = probe.shape[0]
    # cand_d2[slot[j], i] is the squared distance from probe j to candidate
    # orbit i. Probe j's row is filled the first time a round reads it, in
    # the next free slot: rounds read only the probes in the deepest holes,
    # so most rows are never computed, and the filled rows stay one
    # contiguous prefix (scattered rows would make most pages of the array
    # resident).
    by_point = np.ascontiguousarray(stack.transpose(1, 0, 2))  # (s, k, n)
    firsts = by_point[0]
    cand_d2 = np.empty((p, k))
    slot = np.full(p, -1)
    used = 0

    def rows(cols: np.ndarray) -> np.ndarray:
        """A copy of the rows of probes cols, the missing ones filled with
        a running maximum over the orbit point index of product_blocks of
        the new probes and that point of every orbit."""
        nonlocal used
        new = cols[slot[cols] < 0]
        fill = cand_d2[used:used + new.size]
        # a one-row product is a matrix-vector product, whose bits can
        # differ, so a single new probe goes with a copy of itself
        at = probe[np.repeat(new, 2) if new.size == 1 else new]
        for start, top in product_blocks(at, firsts):
            for points in by_point[1:]:
                for ofs, prods in product_blocks(at[start:start + len(top)],
                                                 points):
                    part = top[ofs:ofs + len(prods)]
                    np.maximum(part, prods, out=part)
            part = fill[start:start + len(top)]
            part[:] = 2.0 - 2.0 * top[:len(part), :k]
        slot[new] = np.arange(used, used + new.size)
        used += new.size
        return cand_d2[slot[cols]]

    if placed.shape[0]:
        mind2 = _nearest_d2(probe, placed)
    else:
        mind2 = np.full(p, np.inf)
    alive = clear0 > sep_floor
    picked: list[int] = []
    for _ in range(rounds):
        if not np.any(alive):
            return None
        # A candidate's cover is its largest min(mind2, d2) over the probes.
        # Probes outside the depth deepest holes (mind2 <= theta) cannot set
        # a cover above theta, so once every candidate's cover over the
        # deep holes exceeds theta, the deep holes decide every cover. The
        # depth doubles from 4 up to p / 16 until that holds; else the
        # covers are taken over every probe.
        depth = 4
        while depth <= p // 16:
            theta = np.partition(mind2, p - depth)[p - depth]
            cols = np.flatnonzero(mind2 > theta)
            cover = np.minimum(rows(cols), mind2[cols, None]).max(
                axis=0, initial=-np.inf)
            if np.min(cover[alive]) > theta:
                break
            depth *= 2
        else:
            cover = np.minimum(rows(np.arange(p)), mind2[:, None]).max(axis=0)
        cover[~alive] = np.inf
        best = int(np.argmin(cover))  # the first on ties
        picked.append(best)
        chosen = stack[best]
        np.minimum(mind2, _nearest_d2(probe, chosen), out=mind2)
        alive[best] = False
        alive &= _separation(firsts, chosen) > sep_floor
    return picked

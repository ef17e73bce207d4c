"""Deterministic quadrature on the unit sphere S^{n-1}.

Every integral in the package (dual volumes, facet measures, the entropy
functional) is evaluated as a weighted node sum over one of these grids, so
grids are immutable and reproducible from their (scheme, node_count, seed)
triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SphericalGrid",
    "unit_ball_volume",
    "sphere_area",
    "build_grid",
    "probe_grid",
    "integrate",
    "fibonacci_sphere_nodes",
    "stable_sum",
    "near_pairs",
    "nearest_within",
    "greedy_keep",
    "first_of_clusters",
    "require_finite",
    "padded",
    "product_blocks",
    "row_slices",
]

SCHEMES = ("uniform-angle", "fibonacci-sphere", "monte-carlo")

_NODE_NORM_TOL = 1e-12
# product_blocks forms at most this many products at a time (1 MiB, which
# fits in cache), and row_slices cuts by the same count of cells;
# active_part on a criterion-9 pooled body (3840 constraints) peaks at
# 1.0 MiB, 11-14 MiB unblocked
BLOCK_CELLS = 131_072  # 2^17


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(k: int) -> float:
    """Surface area of the unit sphere in R^k.

    Counting conventions for the degenerate cases: the 0-sphere in R^1 is the
    two-point set {-1, +1}, so sphere_area(1) = 2, and sphere_area(0) = 1 (the
    empty product that appears when a radial integral has no angular part).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1.0
    if k == 1:
        return 2.0
    return k * unit_ball_volume(k)


# Below this many entries math.fsum on a list beats the vectorised
# extraction (crossover measured at 768 to 1536 entries, depending on the
# spread of the data; 2-vCPU x86-64, numpy 2.4). The solver's 24-entry orbit
# sums and 642-entry atom sums stay on fsum.
_EXTRACT_MIN_SIZE = 1024


def stable_sum(values) -> float:
    """Exactly rounded sum of all entries, equal to math.fsum bit for bit.

    Large arrays use error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", 2008). With N entries, 2^m >= N + 2,
    2^e > max |r| and sigma = 2^(e + m), each q = (r + sigma) - sigma is a
    multiple of 2^(e + m - 53) with |q| <= 2^e, so np.sum(q) is exact in any
    order (every partial sum is such a multiple below sigma), and r - q is
    exact (the rounding error of an addition). Repeating on r - q until it
    vanishes splits the sum into a few exact partial sums, and fsum of those
    rounds the same real number as fsum of the entries. Arrays below
    _EXTRACT_MIN_SIZE, and arrays with a non-finite entry, no nonzero entry
    or a largest magnitude outside (2^-900, 2^900), go to fsum directly, so
    inf, nan and inf - inf return or raise exactly as fsum does.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < _EXTRACT_MIN_SIZE:
        return math.fsum(v.tolist())
    # numpy's max and min both return nan when any entry is nan
    top = max(float(v.max()), -float(v.min()))
    if not 2.0 ** -900 < top < 2.0 ** 900:
        return math.fsum(v.tolist())
    m = (v.size + 1).bit_length()
    parts = []
    r = v.copy()
    q = np.empty_like(r)
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(np.sum(q)))
        r -= q
        top = max(float(r.max()), -float(r.min()))
    return math.fsum(parts)


def _generic_key(pts: np.ndarray) -> np.ndarray:
    """Projection of each row onto a fixed generic unit vector: rows within
    r of each other have keys within r."""
    w = np.sqrt(np.arange(2.0, pts.shape[1] + 2.0))
    return pts @ (w / np.linalg.norm(w))


def near_pairs(points, radius: float, labels):
    """Every pair of rows (i, j), i < j, with equal labels (one label for
    all rows when labels is None) that lie within radius, among a few more,
    as (i, j, row norm of the difference).

    The rows are sorted by label and then by their projection onto a
    generic unit vector. Rows within radius have projections within radius
    of each other, so comparing each row with the next ones in that order
    while the projections stay within 4 radii, far above rounding, finds
    every such pair; rows whose projections nearly tie without being close
    only cost time.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    key = _generic_key(pts)
    lab = np.zeros(m, dtype=np.intp) if labels is None else np.asarray(labels)
    order = np.lexsort((key, lab))
    key, lab = key[order], lab[order]
    # a pair d places apart in the sorted order is in the window only if
    # the pair d - 1 apart from the same row is, so the rows to check shrink
    found = [np.zeros((2, 0), dtype=np.intp)]
    at, d = np.arange(m), 1
    while at.size:
        at = at[at < m - d]
        at = at[(lab[at + d] == lab[at]) &
                (key[at + d] - key[at] <= 4.0 * radius)]
        found.append(order[np.stack([at, at + d])])
        d += 1
    pairs = np.sort(np.concatenate(found, axis=1), axis=0)
    return pairs[0], pairs[1], np.linalg.norm(pts[pairs[0]] - pts[pairs[1]],
                                              axis=1)


def nearest_within(points, queries, radius: float):
    """For each query row, the nearest row of points within radius (the
    lowest index on ties) and the row norm of their difference, or -1 and
    inf where no row is that close.

    near_pairs's rule across two sets: the point keys are sorted once, and
    each query is compared only with the points whose keys lie within 4
    radii of its own, which holds every point within radius of it. The
    query keys are searched in sorted order, where each search starts from
    the last, and the window of each query is then put back in its place.
    """
    pts = np.asarray(points, dtype=float)
    qs = np.asarray(queries, dtype=float)
    key = _generic_key(pts)
    order = np.argsort(key, kind="stable")
    key, qkey = key[order], _generic_key(qs)
    by_key = np.argsort(qkey)
    qkey = qkey[by_key]
    lo, count = np.empty((2, qs.shape[0]), dtype=np.intp)
    lo[by_key] = np.searchsorted(key, qkey - 4.0 * radius, side="left")
    count[by_key] = np.searchsorted(key, qkey + 4.0 * radius, side="right")
    count -= lo
    row = np.repeat(np.arange(qs.shape[0]), count)
    cand = order[np.arange(row.size) +
                 np.repeat(lo - (np.cumsum(count) - count), count)]
    dist = np.linalg.norm(qs[row] - pts[cand], axis=1)
    close = dist <= radius
    row, cand, dist = row[close], cand[close], dist[close]
    pick = np.lexsort((cand, dist, row))
    head = np.ones(pick.size, dtype=bool)
    head[1:] = row[pick[1:]] != row[pick[:-1]]
    pick = pick[head]
    nearest = np.full(qs.shape[0], -1, dtype=np.intp)
    gap = np.full(qs.shape[0], np.inf)
    nearest[row[pick]], gap[row[pick]] = cand[pick], dist[pick]
    return nearest, gap


def greedy_keep(count: int, earlier: np.ndarray,
                later: np.ndarray) -> np.ndarray:
    """Mask of the items 0..count-1 that an in-order greedy pass keeps: an
    item is kept when no earlier kept item is paired with it (pairs given
    as earlier[k] < later[k]).

    That rule fixes every item from the items before it, so the greedy
    mask is the one mask that satisfies it. Applying the rule to all items
    at once until the mask stops changing finds that mask: an item is
    settled one sweep after every earlier item paired with it is, so a
    chain of k paired items takes about k sweeps and a clique of
    near-duplicates two.
    """
    keep = np.ones(count, dtype=bool)
    while True:
        new = np.ones_like(keep)
        new[later[keep[earlier]]] = False
        if np.array_equal(new, keep):
            return keep
        keep = new


def first_of_clusters(points, radius: float, group_of=None) -> np.ndarray:
    """Mask of the rows a greedy in-order dedupe keeps, the package's one
    near-duplicate rule: a row is dropped when an earlier kept row lies
    within radius (row norm of the difference), and with group_of (one
    label per row) only rows of one label merge."""
    earlier, later, dist = near_pairs(points, radius, group_of)
    close = dist <= radius
    return greedy_keep(np.shape(points)[0], earlier[close], later[close])


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the array and its first row (entry, for a
    vector; matrix, for a stack of them) that holds a non-finite value."""
    finite = np.isfinite(values)
    if finite.all():
        return
    part = ("entry", "row", "matrix")[min(values.ndim, 3) - 1]
    i = int(np.argmax(~finite.reshape(len(values), -1).all(axis=1)))
    raise ValueError(f"{name} {part} {i} is not finite: {values[i]}")


def padded(values: np.ndarray, fill) -> np.ndarray:
    """values with rows of fill (a number or a row) up to a multiple of 8."""
    values = np.asarray(values, dtype=float)
    pad = np.full((-len(values) % 8,) + values.shape[1:], fill)
    return np.concatenate([values, pad])


def product_blocks(rows: np.ndarray, cols: np.ndarray):
    """Yield (start, rows[start:stop] @ padded(cols, 0.0).T) over
    consecutive row blocks of at most BLOCK_CELLS products (read at each
    call), but at least two rows; the pad products are exactly 0.0.

    On OpenBLAS 0.3.31 (Haswell kernels) every row slice of two or more
    rows of a product whose column count is a multiple of 8 has the bits of
    the whole product, at one BLAS thread or two (tests/test_bodies.py
    checks both); unpadded, a slice could differ in its last columns, and
    so could the whole product at two threads. A one-row product is a
    matrix-vector product, whose bits can differ, so a last block of one
    row joins the block before it. The blocks are the fewest the limit
    allows, all of one size but the last, which is less than one row per
    block shorter (with 7.6 MiB blocks, a short last block had raised a
    flagship solve's resident peak by about 1 MB). A caller that deletes
    each block before taking the next holds one block at a time.
    """
    cols = padded(cols, 0.0)
    m = len(rows)
    blocks = -(-m // max(2, BLOCK_CELLS // max(1, len(cols))))
    step = -(-m // max(1, blocks))
    start = 0
    while start < m:
        stop = start + step if m - start - step >= 2 else m
        yield start, rows[start:stop] @ cols.T
        start = stop


def row_slices(count: int, cells_per_row: int):
    """Yield consecutive slices of range(count), each of at most
    BLOCK_CELLS cells (read at each call) but at least one row."""
    step = max(1, BLOCK_CELLS // max(1, cells_per_row))
    for start in range(0, count, step):
        yield slice(start, start + step)


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes and weights on S^{n-1}.

    nodes is an (N, n) array of unit vectors, weights an (N,) array of positive
    reals carrying (n-1)-dimensional surface measure. Grids are immutable;
    arrays are set non-writeable at construction. Node norms are checked
    with _row_norms, which equals np.linalg.norm(nodes, axis=1) bit for bit.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    seed: int = 0

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise ValueError(f"nodes must have shape (N, {self.dim})")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("weights must match node count")
        require_finite("nodes", nodes)
        require_finite("weights", weights)
        worst = np.max(np.abs(_row_norms(nodes) - 1.0))
        if worst > _NODE_NORM_TOL:
            raise ValueError(f"node norms deviate from 1 by {worst:.3e}")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = stable_sum(weights)
        target = sphere_area(self.dim)
        tol = 1e-9 if self.scheme == "uniform-angle" else 0.005 * target
        if abs(total - target) > max(tol, 1e-9):
            raise ValueError(
                f"total weight {total:.12g} misses surface area {target:.12g}"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def total_weight(self) -> float:
        return stable_sum(self.weights)


def fibonacci_sphere_nodes(count: int) -> np.ndarray:
    """Near-uniform spiral nodes on S^2 (golden-angle lattice)."""
    k = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    nodes = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return _renormalize(nodes)


# Below this many coordinates numpy reduces each row of a C-contiguous array
# left to right, so sums of squared columns in coordinate order give
# np.linalg.norm(x, axis=1) bit for bit; from 8 up it sums pairwise in
# blocks of 8 and the rounding differs in about a fifth of rows.
_COLUMN_NORM_MAX_DIM = 7


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) bit for bit, by sums of squared columns
    when x has at most _COLUMN_NORM_MAX_DIM columns, which skips the
    strided row reduction."""
    if x.shape[1] > _COLUMN_NORM_MAX_DIM:
        return np.linalg.norm(x, axis=1)
    s = x[:, 0] * x[:, 0]
    for i in range(1, x.shape[1]):
        col = x[:, i]
        s += col * col
    return np.sqrt(s, out=s)


def _renormalize(nodes: np.ndarray) -> np.ndarray:
    return nodes / _row_norms(nodes)[:, None]


def build_grid(n: int, node_count: int, scheme: str = "", seed: int = 0) -> SphericalGrid:
    """Construct a quadrature grid on S^{n-1}.

    Default schemes: exact uniform angles for n=2, a Fibonacci lattice with
    equal weights 4*pi/N for n=3, and seeded equal-weight Monte-Carlo for
    n >= 4. The result is deterministic for fixed (scheme, node_count, seed).
    """
    if n < 2:
        raise ValueError(f"sphere dimension requires n >= 2, got {n}")
    if node_count < 8:
        raise ValueError(f"node_count must be >= 8, got {node_count}")
    if not scheme:
        scheme = {2: "uniform-angle", 3: "fibonacci-sphere"}.get(n, "monte-carlo")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    if scheme == "uniform-angle":
        if n != 2:
            raise ValueError("uniform-angle grids are defined only for n=2")
        theta = 2.0 * math.pi * np.arange(node_count) / node_count
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(node_count, 2.0 * math.pi / node_count)
    elif scheme == "fibonacci-sphere":
        if n != 3:
            raise ValueError("fibonacci-sphere grids are defined only for n=3")
        nodes = fibonacci_sphere_nodes(node_count)
        weights = np.full(node_count, 4.0 * math.pi / node_count)
    else:
        rng = np.random.default_rng(seed)
        nodes = rng.standard_normal((node_count, n))
        # normalised twice, here and below: the second division moves the
        # last bit of some rows, and the node bits are pinned
        nodes = _renormalize(nodes)
        weights = np.full(node_count, sphere_area(n) / node_count)

    return SphericalGrid(dim=n, nodes=_renormalize(nodes), weights=weights,
                         scheme=scheme, seed=seed)


@lru_cache(maxsize=8)
def probe_grid(n: int) -> SphericalGrid:
    """The one probe grid of the package: 720 nodes for n = 2, 1280 for
    n = 3 and 3000 above, default scheme, seed 101. Star-body positivity,
    the invariance probe and asymmetry certificates probe it unless given a
    grid of their own."""
    counts = {2: 720, 3: 1280}
    return build_grid(n, counts.get(n, 3000), seed=101)


def integrate(grid: SphericalGrid, f) -> float:
    """Quadrature of f over S^{n-1}: sum_i w_i f(u_i), compensated summation.

    f must be a pure vectorized function taking the (N, n) node array and
    returning N finite values. The reduction order is fixed (node index
    order), so repeated evaluation is bit-stable.
    """
    values = np.asarray(f(grid.nodes), dtype=float)
    if values.shape != (grid.node_count,):
        raise ValueError(
            f"integrand returned shape {values.shape}, expected ({grid.node_count},)"
        )
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(f"integrand is non-finite at node {idx}: {values[idx]!r}")
    return stable_sum(values * grid.weights)

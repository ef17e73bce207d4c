import hashlib
import math
import struct

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from dualminkowski import sphere
from dualminkowski.sphere import (
    SphericalGrid,
    build_grid,
    first_of_clusters,
    integrate,
    near_pairs,
    nearest_within,
    sphere_area,
    stable_sum,
    unit_ball_volume,
)

from conftest import (icosphere_nodes, reference_nearest_within,
                      reference_stable_sum)


def test_sphere_constants():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2)
    # counting conventions used by the radial-coordinate integral identity
    assert sphere_area(1) == 2.0
    assert sphere_area(0) == 1.0
    for n in range(1, 8):
        assert sphere_area(n) == pytest.approx(n * unit_ball_volume(n))


def test_uniform_angle_grid():
    g = build_grid(2, 360, "uniform-angle")
    assert g.node_count == 360
    assert np.allclose(g.weights, 2.0 * math.pi / 360.0)
    assert abs(g.total_weight() - 2.0 * math.pi) < 1e-9
    gaps = np.diff(np.sort(np.arctan2(g.nodes[:, 1], g.nodes[:, 0])))
    assert np.allclose(gaps, 2.0 * math.pi / 360.0, atol=1e-12)


def test_fibonacci_grid_total_weight():
    g = build_grid(3, 1000, "fibonacci-sphere")
    assert abs(g.total_weight() - 4.0 * math.pi) <= 0.005 * 4.0 * math.pi
    assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) <= 1e-12


def test_monte_carlo_grid_total_weight():
    g = build_grid(4, 10000, "monte-carlo", seed=7)
    assert abs(g.total_weight() - 2.0 * math.pi ** 2) <= 0.01 * 2.0 * math.pi ** 2


def test_grid_determinism():
    a = build_grid(4, 500, "monte-carlo", seed=3)
    b = build_grid(4, 500, "monte-carlo", seed=3)
    assert np.array_equal(a.nodes, b.nodes)


@pytest.mark.parametrize("args, digest", [
    ((4, 200000, "monte-carlo", 0),
     "7904a8587c1572afd8e5680c5ada95d041a77602ba0c995326b7ee06ffe2c6f3"),
    ((3, 20000, "fibonacci-sphere", 0),
     "3129e0785d413f82de45c19c90e95b530032b703783ac0ac26559bfb44850692"),
    ((2, 720, "uniform-angle", 0),
     "417143b9d6e38d98f98ffd63901b570689c47cd279c70d761ac70ba51ab15c8c"),
])
def test_grid_nodes_pinned(args, digest):
    """Node bits of one grid per scheme, as the double normalisation with
    np.linalg.norm row norms gave them; every quadrature value rests on
    them."""
    nodes = build_grid(*args).nodes
    assert hashlib.sha256(nodes.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n", range(2, 13))
def test_row_norms_match_linalg_norm(n):
    """Column sums below 8 coordinates and the np.linalg.norm fallback from
    8 up both give np.linalg.norm(x, axis=1) bit for bit, on Gaussian rows,
    on rows with zeros, subnormals and huge entries, and on a transposed
    (Fortran-ordered) view."""
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, 5e-324, 1e-160, 3.0, -7.5, 1e150])
    x = np.vstack([rng.standard_normal((20000, n)),
                   special[rng.integers(0, special.size, (500, n))]])
    for rows in (x, np.ascontiguousarray(x.T).T):
        want = np.linalg.norm(rows, axis=1)
        got = sphere._row_norms(rows)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_build_grid_rejections():
    with pytest.raises(ValueError):
        build_grid(3, 100, "uniform-angle")
    with pytest.raises(ValueError):
        build_grid(2, 100, "fibonacci-sphere")
    with pytest.raises(ValueError):
        build_grid(3, 4)
    with pytest.raises(ValueError):
        build_grid(1, 100)
    with pytest.raises(ValueError):
        build_grid(3, 100, "lebedev")


def test_grid_invariant_enforcement():
    nodes = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="norms"):
        SphericalGrid(dim=2, nodes=nodes, weights=np.ones(4), scheme="uniform-angle")


@pytest.mark.parametrize("part, index, message", [
    ("nodes", (3, 1), r"nodes row 3 is not finite"),
    ("weights", 7, r"weights entry 7 is not finite: nan"),
])
def test_grid_rejects_nan(part, index, message):
    """A nan fails no comparison, so the norm and weight checks alone would
    pass it."""
    grid = build_grid(3, 100)
    arrays = {"nodes": grid.nodes.copy(), "weights": grid.weights.copy()}
    arrays[part][index] = math.nan
    with pytest.raises(ValueError, match=message):
        SphericalGrid(dim=3, scheme=grid.scheme, **arrays)


def test_integrate_constant_and_moments(grid3):
    assert integrate(grid3, lambda u: np.ones(len(u))) == pytest.approx(
        4.0 * math.pi, rel=1e-9)
    second = integrate(grid3, lambda u: u[:, 0] ** 2)
    assert second == pytest.approx(4.0 * math.pi / 3.0, rel=0.01)
    assert abs(integrate(grid3, lambda u: u[:, 0])) < 1e-3


def test_integrate_linearity(grid3_small):
    f = lambda u: np.exp(u[:, 2])
    g = lambda u: u[:, 0] ** 2 + 0.5
    a, b = 2.7, -1.3
    lhs = integrate(grid3_small, lambda u: a * f(u) + b * g(u))
    rhs = a * integrate(grid3_small, f) + b * integrate(grid3_small, g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_integrate_reports_bad_node(grid3_small):
    def bad(u):
        vals = np.ones(len(u))
        vals[17] = np.nan
        return vals

    with pytest.raises(ValueError, match="node 17"):
        integrate(grid3_small, bad)


def test_monte_carlo_seeds_agree_within_three_stderr():
    f = lambda u: (1.0 + 0.5 * u[:, 0]) ** 2
    runs = []
    for seed in (1, 2):
        g = build_grid(4, 40000, "monte-carlo", seed=seed)
        # standard error of the equal-weight mean, from the node variance
        stderr = sphere_area(4) * float(np.std(f(g.nodes))) / math.sqrt(40000)
        runs.append((integrate(g, f), stderr))
    (v1, s1), (v2, s2) = runs
    assert abs(v1 - v2) <= 3.0 * math.hypot(s1, s2)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_radial_coordinate_integral_identity(k, p, t):
    """Integral of (t + |z|)^-p over R^k in radial coordinates.

    The closed form is alpha_k * Gamma(k) Gamma(p-k) / Gamma(p) * t^{k-p}
    (a Beta-function moment). For k = 1 this reduces to the simpler
    alpha_1/(p-1) * t^{1-p}; for k >= 2 the simple form alpha_k/(p-k) is an
    overestimate by the factor binom(p-1, k-1)*(k-1)!..., so only the exact
    form is asserted, plus the one-sided domination that the box estimates
    rely on.
    """
    if p <= k:
        pytest.skip("identity requires k < p")
    value, _ = quad(lambda r: (t + r) ** (-p) * r ** (k - 1), 0.0, np.inf)
    value *= sphere_area(k)
    exact = sphere_area(k) * math.gamma(k) * math.gamma(p - k) / math.gamma(p) \
        * t ** (k - p)
    assert value == pytest.approx(exact, rel=0.01)
    simple = sphere_area(k) / (p - k) * t ** (k - p)
    if k == 1:
        assert value == pytest.approx(simple, rel=0.01)
    else:
        assert value <= simple * 1.01  # simple form stays a valid upper bound


def test_icosphere_counts():
    assert [icosphere_nodes(k).shape[0] for k in range(4)] == [12, 42, 162, 642]
    nodes = icosphere_nodes(2)
    assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) < 1e-12


def _sum_outcome(fn, values):
    """The bits of fn(values), or the type and message of what it raised."""
    try:
        return struct.pack("<d", fn(values))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def test_stable_sum_matches_fsum(monkeypatch):
    """stable_sum equals math.fsum bit for bit (sign of zero included), and
    raises where fsum raises, on either side of the extraction cutoff."""
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(10000) * 10.0 ** rng.integers(-8, 8, 10000)
    assert stable_sum(vals) == math.fsum(vals.tolist())

    cut = sphere._EXTRACT_MIN_SIZE
    signs = rng.choice([-1.0, 1.0], 4000)
    cases = {
        "wide": vals,
        "flagship-sized": rng.uniform(0.3, 30.0, 20000) ** 3.5 / 20000,
        "box-sweep-sized": rng.uniform(0.3, 30.0, 200000) ** 2.5 / 200000,
        "empty": np.array([]),
        "single": np.array([-2.5]),
        "cancellation": np.tile([1e16, 1.0, -1e16, 3.0, -1e-16], 2 * cut),
        "exact-zero": np.concatenate([vals, -vals[::-1]]),
        "half-way-tie": np.concatenate([[1.0, 2.0 ** -53], np.zeros(cut)]),
        "above-tie": np.concatenate([[1.0, 2.0 ** -53, 2.0 ** -300],
                                     np.zeros(cut)]),
        "subnormal-only": np.arange(1, 3 * cut) * 5e-324 * signs[:3 * cut - 1],
        "subnormal-tail": np.concatenate([[1e-250, -3e-260],
                                          np.arange(1, 2 * cut) * 5e-324]),
        "spread-1e260": signs * 10.0 ** rng.uniform(-260.0, 260.0, 4000),
        "spread-1e300": signs * 10.0 ** rng.uniform(-300.0, 300.0, 4000),
        "all-negative-zero": np.full(2 * cut, -0.0),
        "2-d": rng.standard_normal((50, 2 * cut // 50)),
        "integers": np.arange(-cut, 3 * cut),
        "large-integers": 2 ** 60 + np.arange(2 * cut, dtype=np.int64),
        "list": (rng.standard_normal(2 * cut) * 1e5).tolist(),
        "inf": np.concatenate([vals, [np.inf]]),
        "nan": np.concatenate([vals, [np.nan]]),
        "inf-minus-inf": np.concatenate([vals, [np.inf, -np.inf]]),
        "overflow": np.full(2 * cut, 1e308),
    }
    for size in (cut - 1, cut, cut + 1):
        cases[f"size-{size}"] = rng.standard_normal(size) * 1e3
        cases[f"size-{size}-negative-zero"] = np.full(size, -0.0)
    for name, values in cases.items():
        want = _sum_outcome(reference_stable_sum, values)
        assert _sum_outcome(stable_sum, values) == want, name
    assert _sum_outcome(stable_sum, cases["inf-minus-inf"])[0] is ValueError
    assert _sum_outcome(stable_sum, cases["overflow"])[0] is OverflowError

    # large sums take the extraction path: fsum sees a few partial sums
    seen, fsum = [], math.fsum
    monkeypatch.setattr(sphere.math, "fsum",
                        lambda xs: seen.append(len(xs)) or fsum(xs))
    stable_sum(cases["box-sweep-sized"])
    stable_sum(cases["size-%d" % (cut - 1)])
    assert seen[0] <= 4 and seen[1] == cut - 1


def test_first_of_clusters_chain_and_labels():
    """Points 0.8r apart on a line: the second merges into the first and the
    third stays, since it is compared with kept rows only; a coincident row
    with another label stays too."""
    r = 1e-9
    pts = np.array([[0.0, 0.0], [0.8 * r, 0.0], [1.6 * r, 0.0], [0.0, 0.0]])
    assert first_of_clusters(pts, r).tolist() == [True, False, True, False]
    labels = np.array([0, 0, 0, 1])
    assert first_of_clusters(pts, r, group_of=labels).tolist() == \
        [True, False, True, True]
    assert first_of_clusters(np.zeros((0, 3)), r).shape == (0,)


def test_first_of_clusters_matches_all_pairs_greedy():
    rng = np.random.default_rng(12)
    centres = rng.standard_normal((30, 3))
    pts = centres[rng.integers(30, size=400)] + \
        rng.uniform(0.0, 1.5e-9, (400, 1)) * rng.standard_normal((400, 3))
    labels = rng.integers(3, size=400)
    for group_of in (None, labels):
        want = []
        for j in range(len(pts)):
            same = [i for i in range(j) if want[i] and
                    (group_of is None or group_of[i] == group_of[j])]
            want.append(all(np.linalg.norm(pts[i] - pts[j]) > 1e-9
                            for i in same))
        got = first_of_clusters(pts, 1e-9, group_of=group_of)
        assert got.tolist() == want
        assert 0 < np.count_nonzero(~got) < len(pts) - 30


def _ref_first_of_clusters(points, radius, group_of=None):
    """The former first_of_clusters: candidate pairs from a k-d tree at 4x
    the radius (an extra coordinate 8 radii per label apart), taken by the
    later row and then the earlier in one Python loop."""
    pts = np.asarray(points, dtype=float)
    where = pts if group_of is None else \
        np.column_stack([pts, 8.0 * radius * np.asarray(group_of)])
    pairs = cKDTree(where).query_pairs(4.0 * radius, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
    close = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]],
                           axis=1) <= radius
    keep = np.ones(pts.shape[0], dtype=bool)
    for i, j in pairs[close]:
        if keep[i]:
            keep[j] = False
    return keep


def _clusters(rng, centres, copies, spread):
    """copies points around each of centres random centres, each within
    spread of its centre, shuffled; and the centre of each point."""
    base = rng.standard_normal((centres, 3))
    offsets = rng.standard_normal((centres * copies, 3))
    offsets *= spread * rng.uniform(0.0, 1.0, (centres * copies, 1)) / \
        np.linalg.norm(offsets, axis=1, keepdims=True)
    order = rng.permutation(centres * copies)
    owner = np.repeat(np.arange(centres), copies)[order]
    return base[owner] + offsets[order], owner


_R = 1e-9
_DIRECTION = np.array([0.48, -0.6, 0.64])


@pytest.mark.parametrize("case", [
    "chain", "cliques", "cliques-labelled", "overlapping", "empty", "one-row"])
def test_first_of_clusters_pinned_to_loop(case):
    """The fixed point keeps exactly the rows the in-order loop keeps. On a
    chain 0.6 radius apart the loop keeps every other row: a row is
    compared with kept rows only, and the next kept one is 1.2 radii
    away."""
    rng = np.random.default_rng(7)
    labels = None
    if case == "chain":
        pts = np.arange(60)[:, None] * 0.6 * _R * _DIRECTION
    elif case in ("cliques", "cliques-labelled"):
        # every pair of one clique lies within 0.9 radius
        pts, owner = _clusters(rng, 40, 9, 0.45 * _R)
        if case == "cliques-labelled":
            labels = rng.integers(3, size=len(pts))
    elif case == "overlapping":
        pts, _ = _clusters(rng, 40, 9, 1.5 * _R)
    else:
        pts = np.zeros((0 if case == "empty" else 1, 3))
    got = first_of_clusters(pts, _R, group_of=labels)
    assert got.dtype == bool and got.tolist() == \
        _ref_first_of_clusters(pts, _R, group_of=labels).tolist()
    if case == "chain":
        assert got.tolist() == [k % 2 == 0 for k in range(60)]
    elif case.startswith("cliques"):
        tags = owner if labels is None else owner * 3 + labels
        assert np.count_nonzero(got) == len(set(tags.tolist()))


def test_first_of_clusters_pinned_on_orbit_images():
    """The images of every special seed of a group of order 120, one label
    per seed: cliques of up to 24 images that coincide up to rounding."""
    from dualminkowski import groups
    group = groups.simplex_symmetry(4)
    u = np.array(groups._special_seeds(group))
    images, _ = groups._images_near(group, u)
    flat = images.reshape(-1, 4)
    labels = np.repeat(np.arange(len(u)), group.order)
    got = first_of_clusters(flat, groups.ORBIT_DEDUPE_TOL, labels)
    want = _ref_first_of_clusters(flat, groups.ORBIT_DEDUPE_TOL, labels)
    assert np.array_equal(got, want)
    assert np.count_nonzero(~got) > len(flat) // 2


def test_near_pairs_finds_every_close_pair():
    """Every pair of one label within the radius is among the pairs, each
    once as (earlier, later), with the row norm of its difference."""
    rng = np.random.default_rng(3)
    pts, _ = _clusters(rng, 30, 6, 2.0 * _R)
    labels = rng.integers(2, size=len(pts))
    for lab in (None, labels):
        i, j, dist = near_pairs(pts, _R, lab)
        assert np.all(i < j)
        assert len(set(zip(i.tolist(), j.tolist()))) == len(i)
        assert np.array_equal(dist, np.linalg.norm(pts[i] - pts[j], axis=1))
        gaps = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        same = np.ones_like(gaps, dtype=bool) if lab is None else \
            lab[:, None] == lab[None]
        want = {(a, b) for a, b in zip(*np.nonzero(
            (gaps <= _R) & same)) if a < b}
        assert want and want <= set(zip(i.tolist(), j.tolist()))


@pytest.mark.parametrize("case", ["clusters", "duplicates", "far", "empty"])
def test_nearest_within_matches_all_pairs(case):
    """Each query gets the nearest point within the radius, the lowest index
    among equally near ones, and the row norm of the difference; -1 and inf
    when no point is that close."""
    rng = np.random.default_rng(5)
    pts, _ = _clusters(rng, 30, 6, 2.0 * _R)
    queries = pts[rng.permutation(len(pts))] + \
        rng.uniform(-_R, _R, size=pts.shape)
    if case == "duplicates":
        pts = np.concatenate([pts, pts[::3]])  # exact ties at every distance
        queries = np.concatenate([queries, pts[::5]])
    elif case == "far":
        queries = -queries
    elif case == "empty":
        queries = queries[:0]
    nearest, gap = nearest_within(pts, queries, _R)
    gaps = np.linalg.norm(queries[:, None] - pts[None], axis=2)
    for q in range(len(queries)):
        close = np.flatnonzero(gaps[q] <= _R)
        if close.size == 0:
            assert nearest[q] == -1 and gap[q] == np.inf
            continue
        best = close[gaps[q, close] == gaps[q, close].min()]
        assert nearest[q] == best[0]
        assert gap[q] == np.linalg.norm(queries[q] - pts[best[0]])
    if case == "far":
        assert np.all(nearest == -1)
    elif case != "empty":
        assert np.count_nonzero(nearest >= 0) > len(queries) // 2


def test_nearest_within_equals_unsorted_search():
    """Searching the query keys in sorted order gives the bits of the
    search in their own order: random queries around clustered points,
    with exact ties (repeated points and queries) at every distance."""
    rng = np.random.default_rng(11)
    pts, _ = _clusters(rng, 40, 5, 2.0 * _R)
    pts = np.concatenate([pts, pts[::4]])
    queries = pts[rng.integers(len(pts), size=600)] + \
        rng.uniform(-_R, _R, size=(600, 3))
    queries = np.concatenate([queries, queries[::7], pts[::3]])
    queries = queries[rng.permutation(len(queries))]
    for radius in (_R, 0.5 * _R, 4.0 * _R):
        got = nearest_within(pts, queries, radius)
        want = reference_nearest_within(pts, queries, radius)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert np.count_nonzero(got[0] >= 0) > len(queries) // 2

import math

import numpy as np
import pytest

from dualminkowski import groups, sphere
from dualminkowski.groups import (
    MERGE_TOL,
    OrthogonalGroup,
    certify,
    cube_rotation,
    cyclic_rotation,
    direct_sum,
    enumerate_group,
    invariant_directions,
    orbits,
    simplex_rotation,
    simplex_symmetry,
    standard_group,
    symmetrize_density,
)
from dualminkowski.sphere import build_grid, integrate

from conftest import check_closure, icosphere_nodes


def rotation2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def stability_deviation(group, directions):
    worst = 0.0
    for g in group.elements:
        images = directions @ g.T
        nearest = np.argmax(images @ directions.T, axis=1)
        worst = max(worst, float(
            np.max(np.linalg.norm(images - directions[nearest], axis=1))))
    return worst


class TestEnumeration:
    def test_cyclic_from_generator(self):
        g = enumerate_group([rotation2(2.0 * math.pi / 3.0)])
        assert g.order == 3
        check_closure(g)

    def test_triangle_symmetries_from_reflections(self):
        full = simplex_symmetry(2)
        reflections = [m for m in full.elements if np.linalg.det(m) < 0]
        g = enumerate_group(reflections[:2])
        assert g.order == 6

    def test_negation_involution(self):
        g = enumerate_group([-np.eye(3)])
        assert g.order == 2

    def test_infinite_group_rejected(self):
        with pytest.raises(ValueError, match="max_order"):
            enumerate_group([rotation2(1.0)], max_order=50)  # irrational angle

    def test_infinite_group_rejected_at_the_largest_bound(self):
        """Matching in a key window keeps the closure near-linear, so the
        largest allowed bound is reached and raised at in well under a
        second instead of seconds."""
        with pytest.raises(ValueError, match=f"max_order={groups.MAX_ORDER}"):
            enumerate_group([rotation2(1.0)], max_order=groups.MAX_ORDER)

    def test_non_orthogonal_generator_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            enumerate_group([np.array([[1.0, 0.1], [0.0, 1.0]])])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_generator_rejected(self, value):
        """A non-finite generator is named at once, not taken for an
        orthogonal one and closed up to max_order."""
        bad = rotation2(1.0)
        bad[1, 0] = value
        with pytest.raises(ValueError,
                           match=r"generator 1 row 1 is not finite"):
            enumerate_group([rotation2(2.0 * math.pi / 3.0), bad])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_element_rejected(self, value):
        """A non-finite element is named, not passed by a NaN orthogonality
        defect or reported as a missing identity."""
        elems = cyclic_rotation(3).elements.copy()
        elems[2, 0, 1] = value
        with pytest.raises(ValueError, match=r"elements matrix 2 is not "
                           r"finite"):
            OrthogonalGroup(dim=2, elements=elems)

    def test_max_order_is_inclusive(self):
        """A closure of exactly max_order elements is accepted; one more
        element is the error."""
        gens = [rotation2(2.0 * math.pi / 6.0)]
        assert enumerate_group(gens, max_order=6).order == 6
        with pytest.raises(ValueError, match="max_order=5"):
            enumerate_group(gens, max_order=5)

    @pytest.mark.parametrize("gens", [
        [rotation2(2.0 * math.pi / 5.0), np.diag([1.0, -1.0])],
        list(cube_rotation(3).elements[[4, 8]]),
        list(simplex_symmetry(3).elements[[1, 8]]),
    ])
    def test_elements_pinned_to_list_closure(self, gens):
        """The preallocated stack gives the elements of the former
        list-and-restack closure, bit for bit and in the same order."""
        got = enumerate_group(gens).elements
        want = _ref_enumerate_elements(gens)
        assert len(got) in (10, 24)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, params", [
        ("simplex-symmetry", {"m": 3}),
        ("simplex-rotation", {"m": 3}),
        ("cube-rotation", {"m": 3}),
        ("cyclic", {"order": 7}),
        ("direct-sum", {"parts": [("cyclic", {"order": 3}),
                                  ("cyclic", {"order": 5})]}),
    ])
    def test_catalogue_closures_pinned_to_list_closure(self, name, params):
        """The closure of a catalogue group's own elements is that group,
        and its elements are the former list closure's bit for bit, in the
        same order."""
        catalogue = standard_group(name, **params).elements
        got = enumerate_group(catalogue).elements
        want = _ref_enumerate_elements(catalogue)
        assert got.shape == want.shape == catalogue.shape
        assert got.tobytes() == want.tobytes()


class TestStandardGroups:
    def test_cyclic5(self):
        g = standard_group("cyclic", order=5)
        cert = certify(g)
        assert g.order == 5
        assert cert.averaging_norm <= 1e-10
        assert not cert.contains_negation
        assert not cert.has_nonzero_fixed_point

    def test_simplex_symmetry_order(self):
        assert simplex_symmetry(3).order == 24  # permutations of 4 vertices
        assert simplex_symmetry(2).order == 6
        assert simplex_rotation(3).order == 12

    def test_cube_rotation(self):
        g = cube_rotation(3)
        assert g.order == 24
        cert = certify(g)
        assert not cert.contains_negation and not cert.has_nonzero_fixed_point

    def test_direct_sum(self):
        g = direct_sum([cyclic_rotation(3), cyclic_rotation(3)])
        assert g.dim == 4 and g.order == 9
        cert = certify(g)
        assert not cert.has_nonzero_fixed_point

    def test_parity_constraints_rejected(self):
        with pytest.raises(ValueError):
            cyclic_rotation(4)  # even order would contain -I
        with pytest.raises(ValueError):
            cube_rotation(2)

    def test_every_standard_group_is_admissible(self):
        for g in [standard_group("cyclic", order=5),
                  standard_group("simplex-symmetry", m=3),
                  standard_group("cube-rotation", m=3),
                  standard_group("simplex-rotation", m=4)]:
            cert = certify(g)
            assert cert.averaging_norm <= 1e-8
            assert not cert.contains_negation


class TestCertify:
    def test_negation_group(self):
        g = OrthogonalGroup(dim=3, elements=np.array([np.eye(3), -np.eye(3)]))
        cert = certify(g)
        assert cert.averaging_norm == 0.0
        assert cert.contains_negation
        assert not cert.has_nonzero_fixed_point

    def test_cyclic3_roots_of_unity_cancel(self):
        cert = certify(cyclic_rotation(3))
        assert cert.averaging_norm <= 1e-15
        assert not cert.contains_negation

    def test_trivial_group_has_fixed_points(self):
        g = OrthogonalGroup(dim=2, elements=np.eye(2)[None])
        assert certify(g).has_nonzero_fixed_point


class TestOrbits:
    def test_cyclic3_single_orbit(self):
        g = cyclic_rotation(3)
        e1 = np.array([1.0, 0.0])
        dirs = np.array([e1, rotation2(2 * math.pi / 3) @ e1,
                         rotation2(4 * math.pi / 3) @ e1])
        assert orbits(g, dirs) == [[0, 1, 2]]

    def test_trivial_group_singletons(self):
        g = OrthogonalGroup(dim=3, elements=np.eye(3)[None])
        dirs = icosphere_nodes(0)
        assert orbits(g, dirs) == [[i] for i in range(12)]

    def test_icosphere_orbit_sizes_divide_group_order(self, tetra_group):
        dirs = icosphere_nodes(1)
        for orbit in orbits(tetra_group, dirs):
            assert tetra_group.order % len(orbit) == 0

    def test_partition_covers_once(self, tetra_group, tetra_directions):
        part = orbits(tetra_group, tetra_directions)
        seen = sorted(i for orbit in part for i in orbit)
        assert seen == list(range(len(tetra_directions)))

    def test_orbit_partition_is_group_stable(self, tetra_group, tetra_directions):
        part = orbits(tetra_group, tetra_directions)
        label = np.empty(len(tetra_directions), dtype=int)
        for k, orbit in enumerate(part):
            label[orbit] = k
        for g in tetra_group.elements[:5]:
            images = tetra_directions @ g.T
            nearest = np.argmax(images @ tetra_directions.T, axis=1)
            assert np.array_equal(label[nearest], label)

    def test_merge_tol_collision_reported(self):
        g = cyclic_rotation(3)
        dirs = np.array([[1.0, 0.0], [math.cos(1e-8), math.sin(1e-8)]])
        with pytest.raises(ValueError, match="below MERGE_TOL = 1e-06"):
            orbits(g, dirs)

    def test_coincident_directions_named(self):
        g = cyclic_rotation(3)
        dirs = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="directions 1 and 2 are 0.000e"):
            orbits(g, dirs)


class TestSymmetrize:
    def test_invariant_density_unchanged(self, tetra_group):
        f = lambda pts: 2.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2
        sym = symmetrize_density(tetra_group, f)
        pts = icosphere_nodes(1)
        assert np.allclose(sym(pts), f(pts), atol=1e-12)

    def test_even_density_under_negation(self):
        g = OrthogonalGroup(dim=3, elements=np.array([np.eye(3), -np.eye(3)]))
        f = lambda pts: pts[:, 0] ** 2
        sym = symmetrize_density(g, f)
        pts = icosphere_nodes(1)
        assert np.allclose(sym(pts), f(pts), atol=1e-15)

    def test_integral_preserved(self):
        g = cyclic_rotation(3)
        grid = build_grid(2, 3600)
        w = np.array([0.8, 0.6])
        f = lambda pts: np.maximum(pts @ w, 0.0)
        sym = symmetrize_density(g, f)
        assert integrate(grid, sym) == pytest.approx(integrate(grid, f), abs=1e-10)

    def test_idempotent(self):
        g = cyclic_rotation(5)
        f = lambda pts: np.exp(pts[:, 0])
        sym1 = symmetrize_density(g, f)
        sym2 = symmetrize_density(g, sym1)
        theta = np.linspace(0, 2 * math.pi, 50, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        assert np.allclose(sym2(pts), sym1(pts), rtol=1e-14)

    def test_output_is_invariant(self, tetra_group):
        f = lambda pts: np.maximum(pts[:, 0], 0.0) ** 3
        sym = symmetrize_density(tetra_group, f)
        pts = icosphere_nodes(1)
        for g in tetra_group.elements[:6]:
            assert np.allclose(sym(pts @ g.T), sym(pts), atol=1e-13)


class TestInvariantDirections:
    def test_exact_count_and_stability(self, tetra_group, tetra_directions):
        assert tetra_directions.shape == (642, 3)
        assert stability_deviation(tetra_group, tetra_directions) <= 1e-9

    def test_orbit_sizes_divide_order(self, tetra_group, tetra_directions):
        for orbit in orbits(tetra_group, tetra_directions):
            assert tetra_group.order % len(orbit) == 0

    def test_cyclic_exact_multiple(self):
        g = cyclic_rotation(5)
        dirs = invariant_directions(g, 90)
        assert dirs.shape == (90, 2)
        assert stability_deviation(g, dirs) <= 1e-9

    def test_unreachable_count_raises(self):
        g = cyclic_rotation(5)
        # no fixed directions: multiples of 5 only, and the empty plan for 0
        for count, nearest in [(91, 90), (3, 0)]:
            with pytest.raises(ValueError, match="cannot reach exactly .*"
                               f"nearest reachable below: {nearest}$"):
                invariant_directions(g, count)

    @pytest.mark.parametrize("count, sizes", [(60, {6}), (63, {3, 6})])
    def test_generic_orbits_have_group_order(self, count, sizes):
        """(1, 0) lies on a mirror line of this D3, so the first candidate
        of the 2-D stream is no generic point."""
        g = enumerate_group([rotation2(2.0 * math.pi / 3.0), np.diag([1.0, -1.0])])
        assert g.order == 6
        dirs = invariant_directions(g, count)
        assert dirs.shape == (count, 2)
        assert stability_deviation(g, dirs) <= 1e-9
        assert {len(o) for o in orbits(g, dirs)} == sizes

    def test_trivial_group_places_every_direction(self):
        """One-point orbits have unbounded clearance; after the first pick
        the others must stay candidates."""
        g = OrthogonalGroup(dim=3, elements=np.eye(3)[None])
        dirs = invariant_directions(g, 100)
        assert dirs.shape == (100, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
        assert np.unique(dirs, axis=0).shape[0] == 100

    def test_no_duplicate_directions(self, tetra_directions):
        gram = tetra_directions @ tetra_directions.T
        np.fill_diagonal(gram, -1.0)
        assert np.max(gram) < 1.0 - 1e-6


# ---------------------------------------------------------------------------
# References for the batched orbit builder and the packers: the scalar,
# one-seed-at-a-time orbit code and the full-matrix greedy packing the
# direction sets are pinned to. The package must reproduce them bit for bit.


def _ref_enumerate_elements(generators):
    """The former enumerate_group loop: a list of elements, restacked after
    every append."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    gens = gens + [g.T.copy() for g in gens]
    elements = [np.eye(gens[0].shape[0])]
    stack = np.array(elements)
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            for g in gens:
                prod = g @ elements[idx]
                dist = np.max(np.abs(stack - prod[None]), axis=(1, 2))
                if dist.min() > groups.MATCH_TOL:
                    elements.append(prod)
                    stack = np.asarray(elements)
                    new_frontier.append(len(elements) - 1)
        frontier = new_frontier
    return stack


def _ref_snap_to_stabilizer(group, seed, tol=1e-6):
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


def _ref_orbit_points(group, seed, tol=1e-9):
    u = _ref_snap_to_stabilizer(group, np.asarray(seed, dtype=float))
    images = group.apply(u[None])[:, 0, :]
    kept = []
    for img in images:
        if not kept or np.min(np.linalg.norm(np.array(kept) - img, axis=1)) > tol:
            kept.append(img)
    return np.array(kept)


def _ref_orbits(group, seeds):
    return [_ref_orbit_points(group, s) for s in seeds]


def _ref_products(rows, cols):
    """rows @ cols.T from one product_blocks call, the pad columns left
    out."""
    out = np.empty((len(rows), len(cols)))
    for start, prods in sphere.product_blocks(rows, cols):
        out[start:start + len(prods)] = prods[:, :len(cols)]
    return out


def _ref_orbit_d2(rows, stack):
    """Squared distance from every row to every orbit of stack (K, s, n)."""
    k, s, n = stack.shape
    grams = _ref_products(rows, stack.reshape(k * s, n))
    return 2.0 - 2.0 * grams.reshape(len(rows), k, s).max(axis=2)


def _ref_separations(stack):
    """[i, j]: distance from the first point of orbit i to orbit j."""
    return np.sqrt(np.maximum(0.0, _ref_orbit_d2(stack[:, 0], stack)))


def _ref_pack_farthest(stack, clear0, sep_floor, rounds):
    sep = _ref_separations(stack)
    score = clear0.copy()
    picked = []
    for _ in range(rounds):
        best = int(np.argmax(score))
        if score[best] <= sep_floor:
            return None
        picked.append(best)
        score[best] = -np.inf
        # picked orbits stay at -inf; one-point orbits start at +inf
        score = np.minimum(score, sep[:, best])
    return picked


def _ref_pack_coverage(stack, clear0, sep_floor, rounds, probe, placed):
    cand_d2 = _ref_orbit_d2(probe, stack)
    sep = _ref_separations(stack)
    if placed.shape[0]:
        mind2 = np.min(2.0 - 2.0 * _ref_products(probe, placed), axis=1)
    else:
        mind2 = np.full(probe.shape[0], np.inf)
    alive = clear0 > sep_floor
    picked = []
    for _ in range(rounds):
        if not np.any(alive):
            return None
        cover = np.max(np.minimum(mind2[:, None], cand_d2[:, alive]), axis=0)
        best = int(np.flatnonzero(alive)[int(np.argmin(cover))])
        picked.append(best)
        mind2 = np.minimum(mind2, cand_d2[:, best])
        alive[best] = False
        alive &= sep[:, best] > sep_floor
    return picked


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_orbits(group, seeds):
    got = groups._orbits(group, seeds)
    want = _ref_orbits(group, seeds)
    assert len(got) == len(want)
    for g_orb, w_orb in zip(got, want):
        assert _same_bits(g_orb, w_orb)
    return got


def _ref_orbit_partition(group, directions, merge_tol=MERGE_TOL):
    """The dense union-find orbits is pinned to: under each element, every
    image joins its nearest direction by inner product when the row norm of
    their difference is at most merge_tol (exact also for images that are
    not unit vectors)."""
    dirs = np.asarray(directions, dtype=float)
    m = dirs.shape[0]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in group.elements:
        images = dirs @ g.T
        nearest = np.argmax(images @ dirs.T, axis=1)
        dist = np.linalg.norm(images - dirs[nearest], axis=1)
        for i in range(m):
            if dist[i] <= merge_tol:
                ri, rj = find(i), find(int(nearest[i]))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    buckets = {}
    for i in range(m):
        buckets.setdefault(find(i), []).append(i)
    return [sorted(v) for _, v in sorted(buckets.items())]


class TestOrbitPartitionPinned:
    def test_flagship_directions(self, tetra_group, tetra_directions):
        part = orbits(tetra_group, tetra_directions)
        assert part == _ref_orbit_partition(tetra_group, tetra_directions)
        assert len(part) > 1

    @pytest.mark.parametrize("group", [
        simplex_symmetry(3), cube_rotation(3),
        OrthogonalGroup(dim=3, elements=np.eye(3)[None])],
        ids=["tetrahedral", "cube-rotation", "trivial"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_icosphere(self, group, level):
        dirs = icosphere_nodes(level)
        assert orbits(group, dirs) == _ref_orbit_partition(group, dirs)

    @pytest.mark.parametrize("factor, merged", [(0.5, True), (2.0, False)])
    def test_one_direction_nudged(self, tetra_group, tetra_directions, factor,
                                  merged):
        """One direction of a 24-point orbit moved by factor * merge_tol:
        its images still match within merge_tol, or no longer do."""
        orbit = next(o for o in orbits(tetra_group, tetra_directions)
                     if len(o) == 24)
        dirs = tetra_directions.copy()
        u = dirs[orbit[3]]
        t = np.cross(u, [0.0, 0.0, 1.0])
        dirs[orbit[3]] = u + factor * MERGE_TOL * t / np.linalg.norm(t)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        part = orbits(tetra_group, dirs)
        assert part == _ref_orbit_partition(tetra_group, dirs)
        assert (orbit in part) == merged


    def test_one_sided_match_joins(self):
        """R u0 matches u1, but R^-1 u1 lies nearer u2 than u0, so no image
        of u1 matches u0: the partition still joins all three."""
        g = cyclic_rotation(3)
        angles = np.array([0.0, 2.0 * math.pi / 3.0 + 0.6 * MERGE_TOL,
                           1.1 * MERGE_TOL])
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        assert orbits(g, dirs) == _ref_orbit_partition(g, dirs) == [[0, 1, 2]]


def _rotation3(axis, angle):
    """Rotation by angle about axis (Rodrigues)."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k @ k


def _icosahedral(bend):
    """The rotation group of the icosahedron (order 60) from a 5-fold turn
    with irrational entries, one entry of it moved by bend, and a half
    turn: the enumerated elements close only up to rounding, or up to about
    bend."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    five = _rotation3([0.0, 1.0, phi], 2.0 * math.pi / 5.0)
    five[0, 1] += bend
    return enumerate_group([five, np.diag([-1.0, -1.0, 1.0])])


def _generic_stack(group, count):
    return np.array([o for o in groups._orbits(
        group, groups._candidate_stream(group.dim, count, 0))
        if len(o) == group.order])


def _use_references(monkeypatch):
    monkeypatch.setattr(groups, "_orbits", _ref_orbits)
    monkeypatch.setattr(groups, "_pack_farthest", _ref_pack_farthest)
    monkeypatch.setattr(groups, "_pack_coverage", _ref_pack_coverage)


def _mirror_d3():
    return enumerate_group([rotation2(2.0 * math.pi / 3.0), np.diag([1.0, -1.0])])


class TestPinnedToReference:
    @pytest.mark.parametrize("group", [simplex_symmetry(3), cyclic_rotation(5)],
                             ids=["tetrahedral", "cyclic5"])
    def test_pack_coverage_with_nothing_placed(self, group):
        """With no orbit placed every probe is infinitely far, so the first
        round's deep holes all lie at inf and decide no cover, and the
        round takes every cover over every probe."""
        n = group.dim
        stack = np.array([o for o in groups._orbits(
            group, groups._candidate_stream(n, 400, 0))
            if len(o) == group.order])
        clear0 = np.ones(len(stack))
        probe = groups._candidate_stream(n, 4096, 1)
        args = stack, clear0, 0.05, 12, probe, np.zeros((0, n))
        got = groups._pack_coverage(*args)
        assert len(got) == 12
        assert got == _ref_pack_coverage(*args)

    def test_orbits_of_flagship_candidates(self, tetra_group):
        # the generic candidate stream of the 642-direction flagship
        seeds = groups._candidate_stream(3, 1040, 0)
        sizes = {len(o) for o in _assert_same_orbits(tetra_group, seeds)}
        assert sizes == {24}

    def test_orbits_of_candidates_on_a_mirror(self):
        g = enumerate_group([rotation2(2.0 * math.pi / 3.0), np.diag([1.0, -1.0])])
        seeds = groups._candidate_stream(2, 400, 0)  # starts at (1, 0)
        sizes = [len(o) for o in _assert_same_orbits(g, seeds)]
        assert sizes[0] == 3 and sizes.count(6) > 390

    @pytest.mark.parametrize("group", [simplex_symmetry(3), cube_rotation(3),
                                       simplex_symmetry(2)],
                             ids=["tetrahedral", "cube-rotation", "triangle"])
    def test_orbits_of_special_seeds(self, group):
        """Axes and mirror planes: short orbits whose images coincide."""
        seeds = groups._special_seeds(group)
        sizes = {len(o) for o in _assert_same_orbits(group, seeds)}
        assert min(sizes) < group.order

    def test_orbits_of_no_seeds(self):
        g = cyclic_rotation(5)
        assert groups._special_seeds(g) == []
        assert groups._orbits(g, []) == []

    @pytest.mark.parametrize("make, count", [
        (lambda: simplex_symmetry(3), 162),
        (lambda: simplex_symmetry(3), 642),
        (lambda: cyclic_rotation(5), 90),
        (lambda: simplex_symmetry(2), 60),
        (lambda: direct_sum([cyclic_rotation(3), cyclic_rotation(5)]), 450),
        (_mirror_d3, 60),
        (_mirror_d3, 63),
        (lambda: OrthogonalGroup(dim=3, elements=np.eye(3)[None]), 100),
        (lambda: standard_group("negation", n=3), 100),
    ], ids=["tetrahedral-162", "tetrahedral-642", "cyclic5-90", "triangle-60",
            "cyclic3+cyclic5-450", "mirror-d3-60", "mirror-d3-63",
            "trivial-100", "negation-100"])
    def test_directions_match_reference(self, make, count, monkeypatch):
        """Every direction set the tests and the benchmark configs build
        (all at direction seed 0). The tetrahedral cases compute only the
        probe distances their rounds read; cyclic5-90, triangle-60 and
        cyclic3+cyclic5-450 also fall back to all probes, which computes
        every distance."""
        group = make()
        got = invariant_directions(group, count)
        monkeypatch.setattr(groups, "_orbits", _ref_orbits)
        monkeypatch.setattr(groups, "_pack_farthest", _ref_pack_farthest)
        monkeypatch.setattr(groups, "_pack_coverage", _ref_pack_coverage)
        assert _same_bits(got, invariant_directions(group, count))


class TestLargeAndBentGroupsPinned:
    """The paths the flagship cases skip: a group of order 120 with 612
    special seeds and a plan without a small orbit, so that the first
    coverage round has nothing placed; the cube group at 600; and groups
    whose elements close only up to rounding, or up to a bend far above
    it."""

    @pytest.mark.parametrize("make, count", [
        (lambda: simplex_symmetry(4), 600),
        (lambda: cube_rotation(3), 600),
        (lambda: _icosahedral(0.0), 162),
        (lambda: _icosahedral(5e-12), 162),
    ], ids=["simplex4-600", "cube-rotation-600", "icosahedral-162",
            "bent-icosahedral-162"])
    def test_directions_match_reference(self, make, count, monkeypatch):
        group = make()
        got = invariant_directions(group, count)
        _use_references(monkeypatch)
        assert _same_bits(got, invariant_directions(group, count))


class TestCoveringBlocks:
    """invariant_directions picks between the two packers by the covering
    radius over 4096 probes, and the coverage packer starts from each
    probe's nearest placed point: both come from _nearest_d2, in
    product_blocks of the probe, whose pad columns it leaves out."""

    @staticmethod
    def _one_product(probe, pts):
        return 2.0 - 2.0 * np.max(probe @ pts.T, axis=1)

    @pytest.mark.parametrize("values", [1, 648 * 7, 648 * 1000, None],
                             ids=["one-row", "7-rows", "1000-rows", "default"])
    def test_blocks_give_the_one_product_value(self, tetra_directions,
                                               values, monkeypatch):
        """Limits of 1, 7 and 1000 rows and the default (two rows at
        least), and a probe farther than a right angle from every point,
        whose nearest distance no zero pad product may shorten."""
        probe = groups._candidate_stream(3, 4096, 1)
        if values is not None:
            monkeypatch.setattr(sphere, "BLOCK_CELLS", values)
        assert _same_bits(groups._nearest_d2(probe, tetra_directions),
                          self._one_product(probe, tetra_directions))
        far = groups._nearest_d2(-tetra_directions[:1], tetra_directions[:1])
        assert far[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("make, count", [
        (lambda: simplex_symmetry(3), 162),
        (lambda: cyclic_rotation(5), 90),
    ], ids=["tetrahedral-162", "cyclic5-90"])
    def test_small_blocks_pick_the_same_packer(self, make, count,
                                               monkeypatch):
        """Both packers run and covering_of compares both choices (its
        calls are the ones against all count directions), every nearest
        distance equals the one-product value, and the direction set is the
        one of the default blocks."""
        group = make()
        want = invariant_directions(group, count)
        nearest, same, covering = groups._nearest_d2, [], []

        def spy(probe, pts):
            got = nearest(probe, pts)
            same.append(_same_bits(got, self._one_product(probe, pts)))
            if len(pts) == count:
                covering.append(same[-1])
            return got

        monkeypatch.setattr(groups, "_nearest_d2", spy)
        monkeypatch.setattr(sphere, "BLOCK_CELLS", 1000)
        assert _same_bits(invariant_directions(group, count), want)
        assert covering == [True, True]
        assert all(same)

    def test_one_new_probe_has_the_bits_of_a_block(self, tetra_group,
                                                   monkeypatch):
        """Some coverage rounds of the flagship set read a single probe
        that is not in the cache yet. A one-row product is a matrix-vector
        product, whose bits can differ, so every block the packers read,
        that probe's included, has the bits of its rows in a larger
        block."""
        blocks, seen = sphere.product_blocks, []

        def spy(rows, cols):
            for start, prods in blocks(rows, cols):
                seen.append((rows[start:start + len(prods)], cols,
                             prods.copy()))
                yield start, prods

        monkeypatch.setattr(groups, "product_blocks", spy)
        invariant_directions(tetra_group, 642)
        monkeypatch.undo()
        extra = groups._candidate_stream(3, 8, 2)
        single = 0
        for rows, cols, prods in seen:
            single += len(np.unique(rows, axis=0)) == 1
            larger = _ref_products(np.vstack([rows, extra]), cols)
            assert _same_bits(prods[:len(rows), :len(cols)],
                              larger[:len(rows)])
        assert single > 0


# ---------------------------------------------------------------------------
# The sorted image match of orbits, pinned to the dense union-find
# reference and to the k-d tree match it replaced.


def _kd_orbit_partition(group, directions):
    """The k-d tree orbits: every image g @ u joins its nearest direction
    when the two lie within MERGE_TOL."""
    from scipy.spatial import cKDTree

    dirs = np.asarray(directions, dtype=float)
    dist, nearest = cKDTree(dirs).query(group.apply(dirs))
    near = dist <= MERGE_TOL
    src, dst = np.nonzero(near)[1], nearest[near]
    label = np.arange(dirs.shape[0])
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[dst])
        np.minimum.at(low, dst, label[src])
        low = low[low]
        if np.array_equal(low, label):
            return [np.flatnonzero(label == k).tolist()
                    for k in np.unique(label)]
        label = low


def _kd_image_gap(group, directions):
    """The k-d tree stability measure: the largest distance from an image
    g @ u to its nearest direction."""
    from scipy.spatial import cKDTree

    dirs = np.asarray(directions, dtype=float)
    return float(np.max(cKDTree(dirs).query(group.apply(dirs))[0]))


def _assert_match_pinned(group, dirs):
    """orbits equals both references, and its stability verdict the k-d
    tree's."""
    part = orbits(group, dirs)
    assert part == _ref_orbit_partition(group, dirs)
    assert part == _kd_orbit_partition(group, dirs)
    assert part.stable == (_kd_image_gap(group, dirs) <= groups.STABLE_TOL)
    return part


class TestImageMatchPinned:
    @pytest.mark.parametrize("make, count", [
        (lambda: simplex_symmetry(3), 162),
        (lambda: simplex_symmetry(3), 642),
        (lambda: cyclic_rotation(5), 90),
        (lambda: simplex_symmetry(2), 60),
        (lambda: direct_sum([cyclic_rotation(3), cyclic_rotation(5)]), 450),
        (_mirror_d3, 60),
        (_mirror_d3, 63),
        (lambda: OrthogonalGroup(dim=3, elements=np.eye(3)[None]), 100),
        (lambda: standard_group("negation", n=3), 100),
        (lambda: simplex_symmetry(4), 600),
        (lambda: cube_rotation(3), 600),
        (lambda: _icosahedral(0.0), 162),
        (lambda: _icosahedral(5e-12), 162),
    ], ids=["tetrahedral-162", "tetrahedral-642", "cyclic5-90", "triangle-60",
            "cyclic3+cyclic5-450", "mirror-d3-60", "mirror-d3-63",
            "trivial-100", "negation-100", "simplex4-600",
            "cube-rotation-600", "icosahedral-162", "bent-icosahedral-162"])
    def test_direction_sets(self, make, count):
        """Every direction set the tests and the benchmark configs build
        (tetrahedral-642 is the solve workloads' set): the sorted match
        gives the reference partitions, and each set is group-stable."""
        group = make()
        assert _assert_match_pinned(group,
                                    invariant_directions(group, count)).stable

    def test_bent_group_orbit_sizes(self):
        """The bent group's elements shrink images by up to 1.4e-11, which
        sqrt(2 - 2 <g u, v>) would read as a distance of 5.3e-6 (22 orbits);
        the row norm of g u - v keeps the reference at the 4 true orbits."""
        group = _icosahedral(5e-12)
        part = _assert_match_pinned(group, invariant_directions(group, 162))
        assert sorted(map(len, part)) == [12, 30, 60, 60]

    @pytest.mark.parametrize("group", [
        simplex_symmetry(3), cube_rotation(3),
        OrthogonalGroup(dim=3, elements=np.eye(3)[None])],
        ids=["tetrahedral", "cube-rotation", "trivial"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_icosphere(self, group, level):
        _assert_match_pinned(group, icosphere_nodes(level))

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_one_direction_nudged(self, tetra_group, tetra_directions,
                                  factor):
        """A nudge of half or twice MERGE_TOL: the partitions agree either
        way, and the set is no longer group-stable."""
        orbit = next(o for o in orbits(tetra_group, tetra_directions)
                     if len(o) == 24)
        dirs = tetra_directions.copy()
        u = dirs[orbit[3]]
        t = np.cross(u, [0.0, 0.0, 1.0])
        dirs[orbit[3]] = u + factor * MERGE_TOL * t / np.linalg.norm(t)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert not _assert_match_pinned(tetra_group, dirs).stable

    def test_one_sided_match(self):
        g = cyclic_rotation(3)
        angles = np.array([0.0, 2.0 * math.pi / 3.0 + 0.6 * MERGE_TOL,
                           1.1 * MERGE_TOL])
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        assert _assert_match_pinned(g, dirs) == [[0, 1, 2]]

    @pytest.mark.parametrize("shift", [1e-7, 1e-5])
    def test_image_gap_of_a_moved_direction(self, tetra_group,
                                            tetra_directions, shift):
        """One flagship direction moved by shift: the blocked-product gap
        equals the k-d tree's to 3 digits, and both are about shift."""
        dirs = tetra_directions.copy()
        u = dirs[100]
        t = np.cross(u, [0.0, 0.0, 1.0])
        dirs[100] = u + shift * t / np.linalg.norm(t)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        want = _kd_image_gap(tetra_group, dirs)
        assert groups.image_gap(tetra_group, dirs) == \
            pytest.approx(want, rel=1e-3)
        assert want == pytest.approx(shift, rel=0.1)
        assert not orbits(tetra_group, dirs).stable

    @pytest.mark.parametrize("values", [1, 648 * 7, None],
                             ids=["one-row", "7-rows", "default"])
    def test_image_gap_blocks(self, tetra_group, tetra_directions, values,
                              monkeypatch):
        """The gap does not depend on the block, and a stable set's gap is
        within STABLE_TOL."""
        if values is not None:
            monkeypatch.setattr(sphere, "BLOCK_CELLS", values)
        gap = groups.image_gap(tetra_group, tetra_directions)
        assert gap <= groups.STABLE_TOL
        assert gap == pytest.approx(
            _kd_image_gap(tetra_group, tetra_directions), abs=1e-15)

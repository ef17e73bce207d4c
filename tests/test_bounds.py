import math
import warnings

import numpy as np
import pytest

from dualminkowski.bodies import StarBody, ball_polytope, cube_polytope
from dualminkowski.bounds import (
    BoxSpec,
    admissible_exponent_s,
    box_bounds,
    box_dual_volume,
    bs_dual_product,
    q_star,
    santalo_product,
    verify_box,
)
from dualminkowski.sphere import build_grid, fibonacci_sphere_nodes, \
    sphere_area, stable_sum, unit_ball_volume

from conftest import random_centered_polytope, reference_box_radial, \
    translate


class TestQStar:
    def test_fixed_point_at_n(self):
        for n in (2, 3, 4):
            assert q_star(float(n), n) == pytest.approx(float(n), rel=1e-15)

    def test_branch_values(self):
        assert q_star(2.0, 3) == pytest.approx(4.0)
        assert q_star(5.0, 3) == pytest.approx(5.0 / 3.0)
        assert q_star(0.5, 3) == math.inf
        assert q_star(1.0, 4) == math.inf

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, math.e, 3.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_involution(self, q, n):
        qs = q_star(q, n)
        assert q_star(qs, n) == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_star_at_least_n_when_q_below_n(self, n):
        for q in np.linspace(1.01, n, 17):
            assert q_star(float(q), n) >= n - 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            q_star(0.0, 3)
        with pytest.raises(ValueError):
            q_star(-1.0, 3)


class TestAdmissibleExponent:
    def test_reference_value(self):
        assert admissible_exponent_s(-1.0, 2.0, 3) == pytest.approx(4.0 / 3.0)

    def test_midpoint(self):
        qs = q_star(2.0, 3)
        assert admissible_exponent_s(-qs / 2, 2.0, 3) == pytest.approx(2.0)

    def test_boundary_rejected_interior_accepted(self):
        with pytest.raises(ValueError, match="admissible range"):
            admissible_exponent_s(-4.0, 2.0, 3)
        assert admissible_exponent_s(-4.0 + 1e-6, 2.0, 3) > 1.0

    def test_small_q_sentinel(self):
        assert admissible_exponent_s(-100.0, 0.5, 3) == math.inf

    def test_positive_p_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            admissible_exponent_s(0.5, 2.0, 3)


class TestBoxSpec:
    def test_sorted_required(self):
        with pytest.raises(ValueError, match="ascending"):
            BoxSpec(np.array([2.0, 1.0]))

    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            BoxSpec(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_finite_required(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BoxSpec(np.array([1.0, bad]))


def mc_box_dual_volume(axes, q, grid):
    """Monte-Carlo box dual volume with its standard error: the mean of
    rho^q over equally weighted random nodes, times |S^{n-1}| / n."""
    values = reference_box_radial(axes, grid.nodes) ** q
    scale = sphere_area(grid.dim) / grid.dim
    return scale * float(np.mean(values)), \
        scale * float(np.std(values)) / math.sqrt(grid.node_count)


def facet_tensor_dual_volume(axes, q, degree=16):
    """The box dual volume from its facets, by tensor Gauss-Legendre.

    V~_q = (2^n / n) sum_i a_i int over [0, a_j], j != i, of
    (a_i^2 + |y|^2)^{(q-n)/2} dy. Each axis [0, a_j] splits at a_i 2^k,
    panels graded away from the integrand's complex branch points at
    |y| = i a_i.
    """
    axes = np.asarray(axes, dtype=float)
    n = axes.size
    t, w = np.polynomial.legendre.leggauss(degree)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    total = 0.0
    for i, ai in enumerate(axes):
        nodes, weights = [], []
        for aj in np.delete(axes, i):
            ends = np.array([0.0] + [ai * 2.0 ** k for k in range(
                math.ceil(math.log2(aj / ai)))] + [aj])
            width = np.diff(ends)
            nodes.append((ends[:-1, None] + width[:, None] * t).ravel())
            weights.append((width[:, None] * w).ravel())
        r2 = ai ** 2 + sum(np.meshgrid(*[y ** 2 for y in nodes],
                                        indexing="ij"))
        weight = np.prod(np.meshgrid(*weights, indexing="ij"), axis=0)
        total += ai * float(np.sum(weight * r2 ** ((q - n) / 2.0)))
    return 2.0 ** n / n * total


def mp_box_dual_volume(axes, q):
    """box_dual_volume's formula in 30-digit mpmath, on the unscaled axes,
    where no term leaves the exponent range: the series to 80 terms at
    x0 = 2 / max a, and the tail by mpmath.quad in u = log x, split
    where an erf(a_j x) turns from linear to flat. q must miss the poles
    n + 2k."""
    mpmath = pytest.importorskip("mpmath")
    terms = 80
    with mpmath.workdps(30):
        a = [mpmath.mpf(float(x)) for x in axes]
        n, q = len(a), mpmath.mpf(q)
        x0 = 2 / max(a)
        c = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)
        for aj in a:
            series = [2 / mpmath.sqrt(mpmath.pi) * (-1) ** m
                      * aj ** (2 * m + 1) / (mpmath.factorial(m) * (2 * m + 1))
                      for m in range(terms)]
            c = [mpmath.fsum(c[i] * series[k - i] for i in range(k + 1))
                 for k in range(terms)]
        head = mpmath.fsum(c[k] * x0 ** (n + 2 * k - q) / (n + 2 * k - q)
                           for k in range(terms))
        u0, u1 = mpmath.log(x0), mpmath.log(6 / min(a))
        points = sorted({u0, u1} | {u for aj in a for d in (-4, 0, 4)
                                    if u0 < (u := d - mpmath.log(aj)) < u1})
        tail = mpmath.quad(lambda u: mpmath.exp(-q * u) * mpmath.fprod(
            mpmath.erf(aj * mpmath.exp(u)) for aj in a),
            points + [mpmath.inf])
        return float(q / n * 2 * mpmath.pi ** (n / 2) * (tail + head)
                     / mpmath.gamma((n - q) / 2))


def random_box(rng, n, lo=0.3, hi=30.0):
    return BoxSpec(np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), n))))


class TestBoxDualVolume:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cube_volume_at_q_equal_n(self, n):
        assert box_dual_volume(BoxSpec(np.ones(n)), float(n)) == \
            pytest.approx(2.0 ** n, rel=2e-15)

    def test_polynomial_case(self):
        """The unit square at q = 4 gives 16/3; in general q = n + 2 gives
        ((n+2)/n) V(box) sum_j a_j^2 / 3, the integral of |x|^2."""
        assert box_dual_volume(BoxSpec(np.ones(2)), 4.0) == \
            pytest.approx(16.0 / 3.0, rel=1e-15)
        rng = np.random.default_rng(70)
        for n in (2, 3, 4, 5):
            box = random_box(rng, n)
            a = box.half_axes
            want = (n + 2.0) / n * float(np.prod(2.0 * a)) \
                * float(np.sum(a ** 2)) / 3.0
            assert box_dual_volume(box, n + 2.0) == pytest.approx(want,
                                                                  rel=1e-14)

    def test_homogeneity(self):
        box = BoxSpec(np.array([0.5, 1.0, 4.0]))
        for lam in (1e-3, 0.37, 3.0, 250.0):
            for q in (0.5, 1.7, 3.0, 4.2):
                v1 = box_dual_volume(box, q)
                v2 = box_dual_volume(BoxSpec(lam * box.half_axes), q)
                assert v2 == pytest.approx(lam ** q * v1, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_facet_tensor_rule(self, n):
        """Against a graded tensor Gauss-Legendre rule on the facet form of
        the dual volume, which shares nothing with the erf route."""
        rng = np.random.default_rng(71 + n)
        hi = 30.0 if n < 4 else 8.0
        for q in (0.5, 1.0, 1.5, 2.0, 2.0000001, 2.5, 3.0, 3.5, 4.0, 5.5):
            box = random_box(rng, n, hi=hi)
            want = facet_tensor_dual_volume(box.half_axes, q)
            assert box_dual_volume(box, q) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_large_q_matches_facet_tensor_rule(self, n):
        """The series reach and the tail panels follow q, so the route
        still agrees with the facet rule up to q = n + Q_EXCESS_LIMIT."""
        rng = np.random.default_rng(75 + n)
        for excess in (11.3, 41.3, 101.3, 149.3):
            box = random_box(rng, n, hi=8.0)
            want = facet_tensor_dual_volume(box.half_axes, n + excess,
                                            degree=32)
            assert box_dual_volume(box, n + excess) == pytest.approx(
                want, rel=1e-12)

    def test_q_beyond_the_limit_names_the_box(self):
        with pytest.raises(ValueError, match=(
                r"no box dual volume for n = 3, q = 153\.5, half-axes "
                r"\[1, 2, 3\]: the erf route takes q up to n \+ 150$")):
            verify_box(BoxSpec(np.array([1.0, 2.0, 3.0])), 153.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_within_monte_carlo_error(self, n):
        """The exact values lie within four standard errors of a
        200000-node Monte-Carlo estimate."""
        grid = build_grid(n, 200000, "monte-carlo", seed=3)
        rng = np.random.default_rng(80 + n)
        for q in (0.5, 1.5, 2.0, 3.5):
            box = random_box(rng, n, hi=10.0)
            mean, error = mc_box_dual_volume(box.half_axes, q, grid)
            assert abs(box_dual_volume(box, q) - mean) <= 4.0 * error

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smooth_across_poles(self, n):
        """At q = n + 2k the series term meets a zero of 1/Gamma: values at
        q +- 1e-7 lie on a line through the value at q, to rounding."""
        box = random_box(np.random.default_rng(90 + n), n)
        for k in (0, 1, 2):
            q = n + 2.0 * k
            mid = box_dual_volume(box, q)
            lo, hi = (box_dual_volume(box, q + e) for e in (-1e-7, 1e-7))
            assert abs(hi - mid) <= 1e-5 * mid
            assert abs(hi + lo - 2.0 * mid) <= 1e-12 * mid

    def test_finite_positive_on_criterion_5_boxes(self):
        """Every box of the criterion-5 sweep gets a finite positive value."""
        rng = np.random.default_rng(103)
        for n in (2, 3, 4):
            for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
                for _ in range(100):
                    value = box_dual_volume(random_box(rng, n), q)
                    assert 0.0 < value < math.inf, (n, q)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="positive"):
            box_dual_volume(BoxSpec(np.ones(3)), 0.0)

    @pytest.mark.parametrize("axes, q", [
        ([0.5, 1.0, 4.0], 1.7),
        ([1e-10, 1.0, 1e200], 3.5),
        ([1.8e-166, 5.3e-106, 3.2e120], 2.0),
    ], ids=["moderate", "scale-overflows", "series-underflows"])
    def test_out_of_double_range_matches_mpmath(self, axes, q):
        """A box whose scale^q overflows, or whose series coefficients
        (which carry prod b_j) underflow, while its dual volume is a
        double, gets the value of an mpmath evaluation, without numpy
        warnings; the moderate box checks the reference itself."""
        want = mp_box_dual_volume(axes, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = box_dual_volume(BoxSpec(np.array(axes)), q)
        assert got == pytest.approx(want, rel=1e-12)

    def test_above_double_range_is_inf(self):
        """[6.76e93, 8.14e253] at q = 2 has dual volume 4 a_0 a_1, about
        2.2e348: the value is inf, not NaN, and verify_box rejects the box
        by name as degenerate, both without numpy warnings."""
        box = BoxSpec(np.array([6.76e93, 8.14e253]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert box_dual_volume(box, 2.0) == math.inf
            with pytest.raises(ValueError, match=r"degenerate bracket for "
                               r"n = 2, q = 2, half-axes \[6\.76e\+93, "
                               r"8\.14e\+253\]"):
                verify_box(box, 2.0)

    def test_out_of_double_range_bracket_is_checked(self):
        """The bracket [3.30e290, 2.46e291] is finite, so the box gets a
        verdict instead of a NaN observation."""
        assert verify_box(BoxSpec(np.array([1e-10, 1.0, 1e200])), 3.5).passed

    @pytest.mark.parametrize("axes, q", [
        ([1e-200, 1e200], 1.5),
        ([1e-160, 1e160], 0.5),
        ([1e-250, 1e150], 0.9),
    ])
    def test_underflowing_axis_ratio_matches_mpmath(self, axes, q):
        """A box whose a_0 / a_1 underflows (to 0 or below the normal
        range) gets the value of a 30-digit mpmath evaluation of its
        planar integral, 2q int_0^a0 int_0^a1 (x^2 + y^2)^((q-2)/2) dy dx,
        with the inner integral as a hypergeometric function, without
        numpy warnings; [1e-200, 1e200] at q = 1.5 is 6.0e-100 and passes
        its bracket."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a0, a1, mq = (mpmath.mpf(v) for v in (*axes, q))
            want = float(2 * mq * mpmath.quad(
                lambda x: a1 * x ** (mq - 2) * mpmath.hyp2f1(
                    (2 - mq) / 2, 0.5, 1.5, -(a1 / x) ** 2), [0, a0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = box_dual_volume(BoxSpec(np.array(axes)), q)
            report = verify_box(BoxSpec(np.array(axes)), q)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert report.observed == got and report.passed


class TestBoxBounds:
    def test_cube_bracket_contains_volume(self):
        for n in (2, 3, 4):
            rep = verify_box(BoxSpec(np.ones(n)), float(n))
            assert rep.lower <= 2.0 ** n <= rep.upper
            assert rep.passed

    def test_branch_selection(self):
        assert box_bounds(BoxSpec(np.ones(3)), 0.5).branch == "fractional"
        assert box_bounds(BoxSpec(np.ones(3)), 2.0).branch == "integer-log"
        assert box_bounds(BoxSpec(np.ones(3)), 2.0 + 1e-12).branch == "integer-log"
        assert box_bounds(BoxSpec(np.ones(3)), 2.5).branch == "near-top"
        assert box_bounds(BoxSpec(np.ones(3)), 3.0).branch == "top"
        assert box_bounds(BoxSpec(np.ones(3)), 5.0).branch == "top"

    def test_constants_recorded(self):
        rep = box_bounds(BoxSpec(np.array([1.0, 3.0, 9.0])), 2.0)
        assert set(rep.constants_used) == {"lower", "upper"}
        for formula, value in rep.constants_used.values():
            assert isinstance(formula, str) and value > 0

    def test_elongated_integer_branch(self):
        rep = verify_box(BoxSpec(np.array([1.0, 1.0, 100.0])), 2.0)
        assert rep.passed
        # observed value tracks the a2 (1 + log(a3/a2)) shape of the bracket
        rep10 = verify_box(BoxSpec(np.array([1.0, 1.0, 10.0])), 2.0)
        shape_ratio = (1 + math.log(100.0)) / (1 + math.log(10.0))
        assert rep.observed / rep10.observed == pytest.approx(shape_ratio, rel=0.35)

    def test_high_q_powerlaw(self):
        rep = verify_box(BoxSpec(np.array([1.0, 10.0, 100.0])), 3.5)
        assert rep.passed

    def test_four_dim_fractional(self):
        rep = verify_box(BoxSpec(np.array([1.0, 1.0, 1.0, 100.0])), 2.5)
        assert rep.passed

    def test_degenerate_value_names_the_box(self):
        """A dual volume below the double range (here about 1e-400) leaves
        no bracket to check: verify_box names the box instead of returning
        a value whose log margin cannot be taken."""
        axes = np.array([1e-200, 1e-200, 1.0])
        with pytest.raises(ValueError, match=(
                r"degenerate bracket for n = 3, q = 2, half-axes \[1e-200, "
                r"1e-200, 1\]: lower 0, observed 0, upper 0; "
                r"each must be finite and positive")):
            verify_box(BoxSpec(axes), 2.0)

    def test_random_boxes_light_sweep(self):
        rng = np.random.default_rng(40)
        for n in (2, 3, 4):
            for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
                for _ in range(6):
                    axes = np.sort(np.exp(rng.uniform(math.log(0.3),
                                                      math.log(30.0), n)))
                    rep = verify_box(BoxSpec(axes), q)
                    assert rep.passed, (n, q, axes, rep)


class TestSantalo:
    def test_ball_equality_case(self, grid3):
        body = ball_polytope(fibonacci_sphere_nodes(1280))
        rep = santalo_product(body, grid3)
        kappa_sq = unit_ball_volume(3) ** 2
        assert rep["product"] == pytest.approx(kappa_sq, rel=0.01)
        assert rep["pass_forward"] and rep["pass_floor"]

    def test_cube_product(self, grid3):
        rep = santalo_product(cube_polytope(3), grid3)
        assert rep["product"] == pytest.approx(32.0 / 3.0, rel=0.005)
        assert rep["pass_forward"] and rep["pass_floor"]

    def test_off_center_forward_skipped(self, grid3_small):
        body = translate(cube_polytope(3), np.array([0.4, 0.0, 0.0]))
        rep = santalo_product(body, grid3_small)
        assert rep["pass_forward"] is None
        assert rep["pass_floor"]

    def test_random_centered_sample(self, grid2, grid3):
        for n, grid in ((2, grid2), (3, grid3)):
            rng = np.random.default_rng(41)
            kappa_sq = unit_ball_volume(n) ** 2
            for _ in range(10):
                body = random_centered_polytope(rng, n, grid)
                rep = santalo_product(body, grid)
                assert rep["pass_floor"]
                assert rep["pass_forward"]
                assert rep["kuperberg_floor"] == pytest.approx(
                    kappa_sq / 4.0 ** n)

    def test_one_radial_pass_and_one_vertex_enumeration(self, grid3_small,
                                                        monkeypatch):
        """The centring test reads the radial pass that gives V(K), and one
        vertex enumeration gives V(K*): the report equals the one formed
        from geometry_stats, radial_profile and the dense support values."""
        from dualminkowski import bounds
        from dualminkowski.bodies import (geometry_stats, radial_profile,
                                          vertex_enumeration)

        body = random_centered_polytope(np.random.default_rng(44), 3,
                                        grid3_small)
        calls = []
        for name in ("radial_profile", "vertex_enumeration"):
            def counted(*args, real=getattr(bounds, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(bounds, name, counted)
        rep = santalo_product(body, grid3_small)
        assert sorted(calls) == ["radial_profile", "vertex_enumeration"]
        stats = geometry_stats(body, grid3_small)
        rho, _ = radial_profile(body, grid3_small.nodes)
        h = np.max(grid3_small.nodes @ vertex_enumeration(body).T, axis=1)
        weights = grid3_small.weights
        assert rep["centered"] == (float(np.linalg.norm(stats["centroid"]))
                                   <= 1e-3 * stats["circumradius"])
        assert rep["centered"]
        assert rep["volume"] == stable_sum(rho ** 3 * weights) / 3
        assert rep["polar_volume"] == stable_sum(h ** -3.0 * weights) / 3


class TestDualVolumeProduct:
    def test_ball_value(self, grid3):
        body = ball_polytope(fibonacci_sphere_nodes(1280))
        q, r = 2.0, 4.0
        value = bs_dual_product(body, StarBody.ball(3), StarBody.ball(3), q, r,
                                grid3)
        kappa = unit_ball_volume(3)
        assert value == pytest.approx(kappa ** (1 / q + 1 / r), rel=0.01)

    def test_scale_invariance(self, grid3_small):
        rng = np.random.default_rng(42)
        body = random_centered_polytope(rng, 3, grid3_small)
        ball = StarBody.ball(3)
        base = bs_dual_product(body, ball, ball, 2.0, 4.0, grid3_small)
        for lam in (0.5, 2.0):
            scaled = body.with_support(lam * body.support)
            val = bs_dual_product(scaled, ball, ball, 2.0, 4.0, grid3_small)
            assert abs(val - base) / base <= 1e-10

    def test_r_above_q_star_rejected(self, grid3_small):
        rng = np.random.default_rng(43)
        body = random_centered_polytope(rng, 3, grid3_small)
        ball = StarBody.ball(3)
        with pytest.raises(ValueError, match="exceeds q\\*"):
            bs_dual_product(body, ball, ball, 2.0, 4.5, grid3_small)

    def test_box_aspect_sweep_bounded(self, grid3):
        """Across a four-decade aspect sweep the product stays inside one
        empirical interval; the interval itself is recorded, not asserted
        against any reference value."""
        ball = StarBody.ball(3)
        values = []
        for k in range(4):
            axes = np.array([1.0, 1.0, 10.0 ** k])
            normals = np.vstack([np.eye(3), -np.eye(3)])
            body = cube_polytope(3).with_support(np.tile(axes, 2))
            values.append(bs_dual_product(body, ball, ball, 2.0, 4.0, grid3))
        theta_hat = max(max(values), 1.0 / min(values))
        assert min(values) > 0
        assert theta_hat < 50.0  # sanity ceiling; the point is boundedness

import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from faberelast import (
    DomainError,
    ExteriorMap,
    GridSpec,
    NonUnivalentMapError,
    boundary_perimeter,
    build_faber,
    displacement,
    field_grid,
    required_table_order,
    solve_full,
)
from faberelast.conformal import _polyline_self_intersections
from faberelast.solver import DensitySolution
from util import (
    FIG_LOADING,
    FIG_MAPS,
    FIG_MATERIAL,
    count_univalence_checks,
    frozen_derivative,
    frozen_eval,
    random_univalent_map,
    square_map,
)


class TestEval:
    def test_disk_identity(self):
        mp = ExteriorMap((0.0, 0.0))
        assert mp.eval(2.0 + 0.0j) == 2.0 + 0.0j

    @pytest.mark.parametrize(
        "coeffs", [(0.0, complex(np.nan, 0.0)), (0.0, 0.1, complex(0.0, np.inf)), (-np.inf,)]
    )
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            ExteriorMap(coeffs)

    def test_ellipse_on_circle(self):
        a = 0.3
        mp = ExteriorMap((0.0, a))
        theta = np.linspace(0.0, 2.0 * np.pi, 17)
        w = np.exp(1j * theta)
        np.testing.assert_allclose(mp.eval(w), w + a * np.exp(-1j * theta), atol=1e-15)

    def test_ellipse_at_one(self):
        a = 0.1 + 0.1j
        mp = ExteriorMap((0.0, a))
        # independent oracle: plain power-sum evaluation of the Laurent series
        w = 1.0 + 0.0j
        expected = w + sum(c * w ** (-k) for k, c in enumerate([0.0, a]))
        assert abs(mp.eval(w) - expected) < 1e-15
        assert abs(mp.eval(w) - (1.1 + 0.1j)) < 1e-15

    def test_horner_matches_naive_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            order = int(rng.integers(1, 9))
            mp = random_univalent_map(rng, order)
            r = 10.0 ** rng.uniform(0.0, 6.0)
            w = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            naive = w + sum(
                mp.coefficient(k) * w ** (-k) for k in range(mp.order + 1)
            )
            assert abs(mp.eval(w) - naive) <= 1e-13 * max(1.0, abs(naive))

    def test_domain_error_inside(self):
        mp = ExteriorMap((0.0, 0.2))
        for w in (0.5 + 0.0j, complex(np.nan, 0.0)):
            with pytest.raises(DomainError):
                mp.eval(w)
        # the tolerance band just below 1 is allowed
        mp.eval((1.0 - 1e-13) + 0.0j)


class TestDerivative:
    def test_disk(self):
        mp = ExteriorMap((0.5,))
        for w in (1.0, 2.0 + 1.0j, 10.0j):
            assert mp.derivative(w) == 1.0 + 0.0j

    def test_ellipse_formula(self):
        a = 0.1 + 0.1j
        mp = ExteriorMap((0.0, a))
        w = 2.0j
        assert abs(mp.derivative(w) - (1.0 - a / w**2)) < 1e-15
        assert abs(mp.derivative(w) - (1.025 + 0.025j)) < 1e-15

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            mp = random_univalent_map(rng, int(rng.integers(1, 6)))
            r = rng.uniform(1.1, 10.0)
            w = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            fd = (mp.eval(w + h) - mp.eval(w - h)) / (2.0 * h)
            assert abs(mp.derivative(w) - fd) < 1e-6

    def test_domain_error(self):
        mp = ExteriorMap((0.0, 0.2))
        for w in (0.3 + 0.1j, complex(np.nan, np.nan)):
            with pytest.raises(DomainError):
                mp.derivative(w)


class TestBoundaryGeometry:
    def test_disk_theta_zero(self):
        assert ExteriorMap(()).boundary_point(0.0) == 1.0 + 0.0j

    def test_ellipse_quarter_turn(self):
        a = 0.25
        mp = ExteriorMap((0.0, a))
        assert abs(mp.boundary_point(np.pi / 2.0) - 1j * (1.0 - a)) < 1e-15

    def test_periodicity(self):
        rng = np.random.default_rng(11)
        mp = random_univalent_map(rng, 4)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=8)
        np.testing.assert_allclose(
            mp.boundary_point(theta),
            mp.boundary_point(theta + 2.0 * np.pi),
            rtol=0.0,
            atol=1e-12,
        )

    def test_scale_factor_disk(self):
        mp = ExteriorMap(())
        for theta in (0.0, 1.0, 4.0):
            assert abs(mp.scale_factor(0.0, theta) - 1.0) < 1e-15

    def test_scale_factor_ellipse(self):
        a = 0.3
        mp = ExteriorMap((0.0, a))
        assert abs(mp.scale_factor(0.0, 0.0) - abs(1.0 - a)) < 1e-15

    def test_scale_factor_integrates_to_perimeter(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mp = random_univalent_map(rng, int(rng.integers(1, 6)))
            n = 4096
            theta = 2.0 * np.pi * np.arange(n) / n
            h = mp.scale_factor(np.zeros(n), theta)
            quad = float(np.sum(h) * 2.0 * np.pi / n)
            poly = boundary_perimeter(mp, 4096)
            assert abs(quad - poly) < 1e-6 * poly

    def test_scale_factor_equals_theta_derivative(self):
        # |dPsi/drho| and |dPsi/dtheta| agree on the curvilinear grid
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(5):
            mp = random_univalent_map(rng, int(rng.integers(1, 5)))
            rho = rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            w_plus = np.exp(rho + 1j * (theta + h))
            w_minus = np.exp(rho + 1j * (theta - h))
            fd = abs(mp.eval(w_plus) - mp.eval(w_minus)) / (2.0 * h)
            assert abs(mp.scale_factor(rho, theta) - fd) < 1e-6


class TestUnivalence:
    def test_disk_passes(self):
        assert ExteriorMap(()).validate_univalence().ok

    def test_figure_ellipse_passes(self):
        assert ExteriorMap((0.0, 0.1 + 0.1j)).validate_univalence().ok

    def test_large_ellipse_fails(self):
        report = ExteriorMap((0.0, 2.0)).validate_univalence()
        assert not report.ok
        # Psi'(w) = 1 - 2/w^2 has two zeros at |w| = sqrt(2); the boundary
        # winding of Psi' counts them even though no sample lands on one
        assert report.derivative_winding == 2

    def test_self_intersecting_boundary_detected(self):
        # w + 1.5/w^2 folds the boundary into a loop
        report = ExteriorMap((0.0, 0.0, 1.5)).validate_univalence()
        assert not report.ok
        assert len(report.crossing_segments) > 0

    def test_brute_force_cross_check(self):
        # independent O(n^2) pairwise check on a coarse polyline
        mp = ExteriorMap((0.0, 0.0, 1.5))
        n = 256
        pts = mp.boundary_point(2.0 * np.pi * np.arange(n) / n)

        def crosses(p1, q1, p2, q2):
            def orient(a, b, c):
                return (b.real - a.real) * (c.imag - a.imag) - (
                    b.imag - a.imag
                ) * (c.real - a.real)

            return (
                orient(p1, q1, p2) * orient(p1, q1, q2) < 0
                and orient(p2, q2, p1) * orient(p2, q2, q1) < 0
            )

        found = False
        for i in range(n - 2):
            for j in range(i + 2, n if i else n - 1):
                if crosses(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                    found = True
                    break
            if found:
                break
        assert found


def _self_intersections_loop(points):
    """The segment-by-segment loop the pruned search replaced."""
    n = len(points)
    px, py = points.real, points.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    dx, dy = qx - px, qy - py
    hits = []
    for i in range(n - 2):
        lo = i + 2
        hi = n - 1 if i == 0 else n  # wrap-adjacent pair (0, n-1) shares a point
        if lo >= hi:
            continue
        sl = slice(lo, hi)
        d1 = dx[i] * (py[sl] - py[i]) - dy[i] * (px[sl] - px[i])
        d2 = dx[i] * (qy[sl] - py[i]) - dy[i] * (qx[sl] - px[i])
        d3 = dx[sl] * (py[i] - py[sl]) - dy[sl] * (px[i] - px[sl])
        d4 = dx[sl] * (qy[i] - py[sl]) - dy[sl] * (qx[i] - px[sl])
        cross = (d1 * d2 < 0) & (d3 * d4 < 0)
        for j in np.nonzero(cross)[0]:
            hits.append((i, lo + int(j)))
    return hits


class TestSelfIntersections:
    THETA = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)

    @pytest.mark.parametrize(
        "name, points, crossings",
        [
            ("fig3", FIG_MAPS["fig3"].boundary_point(THETA), 0),
            # the crossing at the origin falls inside a segment, not on a vertex
            ("figure-eight", np.sin(THETA + 1e-3) + 0.5j * np.sin(2.0 * (THETA + 1e-3)), 1),
            ("w + 1.5/w^2", ExteriorMap((0.0, 0.0, 1.5)).boundary_point(THETA), 3),
            ("w + 1.2/w^5", ExteriorMap((0.0,) * 5 + (1.2,)).boundary_point(THETA), 24),
        ],
    )
    def test_matches_loop(self, name, points, crossings):
        expected = _self_intersections_loop(points)
        assert len(expected) == crossings, name
        assert _polyline_self_intersections(points) == expected, name

    def test_matches_loop_on_random_maps(self):
        rng = np.random.default_rng(2048)
        for _ in range(20):
            mp = random_univalent_map(rng, int(rng.integers(1, 13)))
            points = mp.boundary_point(self.THETA)
            assert _polyline_self_intersections(points) == _self_intersections_loop(points)

    @pytest.mark.parametrize("n", [4, 5, 33, 100, 257])
    def test_matches_loop_on_random_polylines(self, n):
        # long segments in random directions: most extents overlap on both
        # axes, and many pairs cross
        rng = np.random.default_rng(n)
        points = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert _polyline_self_intersections(points) == _self_intersections_loop(points)

    @staticmethod
    def _zigzag(n=2048):
        # every segment spans the full x range; only the closing segment
        # from (1, 1 - 1/n) back to the origin crosses the others
        k = np.arange(n)
        return (k % 2) + 1j * k / n

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zigzag_matches_loop(self, transpose):
        points = self._zigzag()
        if transpose:
            points = points.imag + 1j * points.real
        expected = _self_intersections_loop(points)
        assert len(expected) == 2045
        assert _polyline_self_intersections(points) == expected

    def test_zigzag_memory_bound(self):
        points = self._zigzag()
        tracemalloc.start()
        try:
            _polyline_self_intersections(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_repeated_points_and_axis_aligned_segments(self):
        # half-integer lattice points: repeated points, zero-length,
        # vertical, horizontal and collinear overlapping segments
        rng = np.random.default_rng(7)
        coords = np.round(2.0 * rng.normal(size=(2, 300))) / 2.0
        points = np.repeat(coords[0] + 1j * coords[1], rng.integers(1, 3, size=300))
        expected = _self_intersections_loop(points)
        assert len(expected) > 0
        assert _polyline_self_intersections(points) == expected

    @pytest.mark.parametrize(
        "points",
        [
            # the path passes through the middle of segment 0 at a vertex
            [0, 2, 2 + 1j, 1 + 1j, 1, 1 - 1j, -1j],
            # segment 4 overlaps segment 0 along the x axis
            [0, 2, 2 + 1j, 1 + 1j, 1, 3, 3 - 1j, -1j],
            # segment 2 ends on segment 0; segment 3 runs back along it
            [0, 2, 1 + 1j, 1, 0.5, 0.5 - 1j],
        ],
    )
    def test_touching_and_collinear_segments_do_not_cross(self, points):
        points = np.array(points, dtype=complex)
        assert _self_intersections_loop(points) == []
        assert _polyline_self_intersections(points) == []

    @pytest.mark.parametrize(
        "points, expected",
        [
            ([0, 1, 1j], []),
            ([0, 1 + 1j, 1, 1j], [(0, 2)]),
            (np.exp(0.8j * np.pi * np.arange(5)), [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]),
        ],
        ids=["triangle", "bowtie", "pentagram"],
    )
    def test_smallest_polylines(self, points, expected):
        points = np.array(points, dtype=complex)
        assert _self_intersections_loop(points) == expected
        assert _polyline_self_intersections(points) == expected


def _invert_reference(mapping, z, tol=1e-12, max_iter=80):
    """The Newton loop that re-evaluated Psi at every active point on each
    pass, on the frozen Horner evaluators, kept as a reference for
    ExteriorMap.invert."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    a0 = mapping.coefficient(0)
    w = z - a0
    small = np.abs(w) < 0.3
    w[small] = 0.3 * np.exp(1j * np.angle(z[small] - a0 + 1e-30))
    target = tol * np.maximum(1.0, np.abs(z))
    res = np.abs(frozen_eval(mapping, w) - z)
    active = res > target
    for _ in range(max_iter):
        if not np.any(active):
            break
        wa = w[active]
        dpsi = frozen_derivative(mapping, wa)
        dpsi = np.where(np.abs(dpsi) < 1e-14, 1e-14, dpsi)
        step = (frozen_eval(mapping, wa) - z[active]) / dpsi
        new = wa - step
        new_res = np.abs(frozen_eval(mapping, new) - z[active])
        for _ in range(20):
            worse = new_res > res[active]
            if not np.any(worse):
                break
            step = np.where(worse, 0.5 * step, step)
            new = wa - step
            new_res = np.abs(frozen_eval(mapping, new) - z[active])
        w[active] = new
        res[active] = new_res
        active = res > target
    return w, res <= target


def _square_grid(n):
    xs = np.linspace(-3.0, 3.0, n)
    return (xs[None, :] + 1j * xs[:, None]).ravel()


class TestInvertMatchesReference:
    """invert must return the reference loop's iterates bit for bit."""

    SETTINGS = [{}, {"max_iter": 3}, {"tol": 1e-15}]
    HARD_MAPS = {
        "ellipse a1=0.999": ExteriorMap((0.0, 0.999)),
        "hypocycloid a2=0.49": ExteriorMap((0.0, 0.0, 0.49)),
        "truncated square": ExteriorMap(
            (0.0, 0.0, 0.0, -1 / 6, 0.0, 0.0, 0.0, 1 / 56, 0.0, 0.0, 0.0, -1 / 176)
        ),
        # not univalent: Newton leaves points unconverged here
        "w + 0.6/w^2": ExteriorMap((0.0, 0.0, 0.6)),
        "w + 1.2/w": ExteriorMap((0.0, 1.2)),
        "w + 0.5/w^3": ExteriorMap((0.0, 0.0, 0.0, 0.5)),
    }

    @staticmethod
    def _assert_same(mapping, z, settings):
        w_ref, ok_ref = _invert_reference(mapping, z, **settings)
        w, ok = mapping.invert(z, **settings)
        assert np.array_equal(w.view(np.uint64), w_ref.view(np.uint64))
        assert np.array_equal(ok, ok_ref)
        return ok_ref

    @pytest.mark.parametrize("settings", SETTINGS)
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_figure_grids(self, name, settings):
        self._assert_same(FIG_MAPS[name], _square_grid(201), settings)

    @pytest.mark.parametrize("settings", SETTINGS)
    def test_random_maps(self, settings):
        rng = np.random.default_rng(41)
        for k in range(20):
            mp = random_univalent_map(rng, 1 + k % 12)
            z = np.concatenate(
                [_square_grid(41), 2.0 * (rng.normal(size=50) + 1j * rng.normal(size=50))]
            )
            self._assert_same(mp, z, settings)

    @pytest.mark.parametrize("settings", SETTINGS)
    @pytest.mark.parametrize("name", list(HARD_MAPS))
    def test_hard_and_non_univalent_maps(self, name, settings):
        mp = self.HARD_MAPS[name]
        converged = self._assert_same(mp, _square_grid(41), settings)
        if name.startswith("w + ") and not settings:
            assert not converged.all()

    @pytest.mark.parametrize("settings", SETTINGS)
    def test_at_the_shift(self, settings):
        for mp in (FIG_MAPS["fig2"], ExteriorMap((0.3 - 0.2j, 0.2, 0.1j))):
            self._assert_same(mp, mp.coefficient(0), settings)


class TestInvertOverflow:
    def test_expected_overflow_is_silent_and_keeps_the_bits(self):
        # damped steps take Psi of square 255 to iterates deep inside the disk,
        # where the blocked sum of its 257-term row overflows
        mapping, z = square_map(64), _square_grid(11)
        with np.errstate(over="warn", invalid="warn"), pytest.warns(RuntimeWarning):
            w_ref, ok_ref = ExteriorMap.invert.__wrapped__(mapping, z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, ok = mapping.invert(z)
        assert w.tobytes() == w_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()
        assert ok.any() and not ok.all()


class TestConstruction:
    def test_rejects_other_radius(self):
        with pytest.raises(ValueError):
            ExteriorMap((0.0, 0.1), conformal_radius=2.0)

    def test_trailing_zeros_trimmed(self):
        mp = ExteriorMap((0.1, 0.2, 0.0, 0.0))
        assert mp.order == 1
        assert mp.coefficients == (0.1 + 0.0j, 0.2 + 0.0j)

    def test_leading_coefficient_convention(self):
        mp = ExteriorMap((0.3, 0.2))
        assert mp.coefficient(-1) == 1.0
        assert mp.coefficient(5) == 0.0


class TestDerivativeZeros:
    """Zeros of Psi' come from the roots of w**(M+1) Psi'(w), not from samples."""

    # the deltoid w + 0.5/w**2 has three cusps on |w| = 1; rotating a2 moves
    # them off any sample angle
    @pytest.mark.parametrize(
        "angle", [0.0, 0.001, -0.001, 3 * 2 * np.pi / 2048, 0.5 * 2 * np.pi / 2048, 1.0, 2.5]
    )
    def test_rotated_deltoid_rejected(self, angle):
        report = ExteriorMap((0.0, 0.0, 0.5 * np.exp(1j * angle))).validate_univalence()
        assert not report.ok
        assert len(report.derivative_zeros) == 3
        np.testing.assert_allclose(np.abs(report.derivative_zeros), 1.0, atol=1e-12)
        assert report.derivative_winding == 0

    @pytest.mark.parametrize(
        "coeffs", [(0.0, 0.0, 0.49), (0.0, 0.999), (0.1, -0.999j), (0.0, 0.0, 0.49j)]
    )
    def test_near_degenerate_shapes_pass(self, coeffs):
        report = ExteriorMap(coeffs).validate_univalence()
        assert report.ok
        assert report.derivative_zeros == ()
        assert report.derivative_winding == 0
        assert 0.0 < report.min_abs_derivative < 0.03

    def test_zeros_outside_counted(self):
        # Psi' = 1 - 3/w**4 for w + 1/w**3: four zeros at |w| = 3**(1/4)
        report = ExteriorMap((0.0, 0.0, 0.0, 1.0)).validate_univalence()
        assert report.derivative_winding == 4
        np.testing.assert_allclose(np.abs(report.derivative_zeros), 3.0**0.25, rtol=1e-12)

    def test_zeros_are_roots_of_derivative(self):
        rng = np.random.default_rng(8)
        for order in (2, 5, 12, 24):
            mp = random_univalent_map(rng, order, margin=0.9)
            big = ExteriorMap((0.0, *(4.0 * np.array(mp.coefficients[1:]))))
            report = big.validate_univalence()
            assert not report.ok
            assert report.derivative_winding == len(report.derivative_zeros) > 0
            for w in report.derivative_zeros:
                assert abs(big._derivative_raw(w)) < 1e-10

    def test_min_abs_derivative_on_boundary_samples(self):
        mp = FIG_MAPS["fig3"]
        theta = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        expected = np.abs(mp.derivative(np.exp(1j * theta))).min()
        assert mp.validate_univalence().min_abs_derivative == expected

    def test_random_admissible_maps_pass(self):
        rng = np.random.default_rng(9)
        for order in range(1, 25):
            assert random_univalent_map(rng, order, margin=0.99).validate_univalence().ok


class TestBoundarySamples:
    """The map's one sampler at w_k = e^{2 pi i k/q}: the bits of its own
    evaluators, kept read-only per q; the univalence check keeps none."""

    # orders up to 30 take plain Horner, 31 and 64 the blocked sum
    @pytest.mark.parametrize("order", [0, 1, 12, 30, 31, 64])
    @pytest.mark.parametrize("q", [256, 2048])
    def test_bits_of_the_evaluators(self, order, q):
        rng = np.random.default_rng(order)
        mp = random_univalent_map(rng, order) if order else ExteriorMap((0.3 - 0.1j,))
        theta = 2.0 * np.pi * np.arange(q) / q
        w = np.exp(1j * theta)
        samples = mp.boundary_samples(q)
        for got, want in zip(samples, (w, mp.boundary_point(theta), mp.derivative(w))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not got.flags.writeable
        assert all(a is b for a, b in zip(mp.boundary_samples(q), samples))

    def test_solve_keeps_none(self):
        mp = ExteriorMap(FIG_MAPS["fig2"].coefficients)  # a map object of its own
        table = build_faber(mp, required_table_order(mp, 24))
        solve_full(mp, FIG_LOADING, FIG_MATERIAL, 24, table=table)
        assert mp.univalence.ok and mp._samples == {}
        mp.validate_univalence(n_boundary=1024)
        assert mp._samples == {}


class TestUnivalenceGate:
    """The map owns the univalence rule: its report is built once per map
    object, and the solver and the field evaluators refuse a failing map."""

    NON_UNIVALENT = {
        "w + 0.6/w^2": (0.0, 0.0, 0.6),
        "w + 1.2/w": (0.0, 1.2),
        "w + 0.5/w^3": (0.0, 0.0, 0.0, 0.5),
        "w + 1.5/w^2": (0.0, 0.0, 1.5),
        "deltoid rotated by 0.001": (0.0, 0.0, 0.5 * np.exp(0.001j)),
        "w + 1.2/w^5": (0.0, 0.0, 0.0, 0.0, 0.0, 1.2),
    }
    GRID = GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5)

    def _assert_refused(self, mp):
        table = build_faber(mp, 12)  # a Faber table exists for any Laurent map
        assert table.order == 12
        sol = DensitySolution(np.zeros(6, complex), np.zeros(6, complex), 0.0, 0.0, 0.0, 6)
        calls = [
            lambda: solve_full(mp, FIG_LOADING, FIG_MATERIAL, 6, table=table),
            lambda: field_grid(sol, table, mp, FIG_MATERIAL, FIG_LOADING, self.GRID),
            lambda: displacement(sol, table, mp, FIG_MATERIAL, FIG_LOADING, 1.5),
            lambda: displacement(sol, table, mp, FIG_MATERIAL, FIG_LOADING, 1.0),
        ]
        for call in calls:
            with pytest.raises(NonUnivalentMapError) as info:
                call()
            assert info.value.report is mp.univalence
            assert not info.value.report.ok
            assert str(info.value).startswith("map failed the univalence check:\n")

    @pytest.mark.parametrize("name", list(NON_UNIVALENT))
    def test_non_univalent_maps_raise(self, name):
        self._assert_refused(ExteriorMap(self.NON_UNIVALENT[name]))

    def test_maps_just_outside_the_sampler_bound_raise(self):
        # sum k|a_k| in [1, 1.5], kept when Psi' has a zero outside the disk
        rng = np.random.default_rng(19)
        refused = 0
        for _ in range(40):
            mp = random_univalent_map(rng, int(rng.integers(1, 13)), margin=0.9)
            a = np.array(mp.coefficients)
            k = np.arange(len(a))
            tail = a[1:] * rng.uniform(1.0, 1.5) / np.sum(k[1:] * np.abs(a[1:]))
            big = ExteriorMap((a[0], *tail))
            # w**(M+1) Psi'(w) = w**(M+1) - sum_k k a_k w**(M-k)
            zeros = np.roots(np.concatenate(([1.0, 0.0], -k[1:] * tail)))
            if np.abs(zeros).max() > 1.0:
                self._assert_refused(big)
                refused += 1
        assert refused >= 10

    def test_message_lists_self_intersections(self):
        report = ExteriorMap((0.0, 0.0, 1.5)).univalence
        lines = str(NonUnivalentMapError(report)).splitlines()
        assert lines[0] == "map failed the univalence check:"
        assert lines[1].startswith("  min |Psi'| on the boundary samples: ")
        assert lines[-1] == (
            f"  boundary self-intersections at segment pairs {list(report.crossing_segments)[:4]}"
        )

    def test_error_pickles_with_its_report(self):
        err = NonUnivalentMapError(ExteriorMap((0.0, 2.0)).univalence)
        back = pickle.loads(pickle.dumps(err))
        assert str(back) == str(err)
        assert back.report == err.report

    def test_one_check_per_map_object(self, monkeypatch):
        checked = count_univalence_checks(monkeypatch)
        for round_ in (1, 2):
            mp = ExteriorMap(FIG_MAPS["fig2"].coefficients)  # a new object each round
            table = build_faber(mp, required_table_order(mp, 12))
            sol = solve_full(mp, FIG_LOADING, FIG_MATERIAL, 12, table=table)
            field_grid(sol, table, mp, FIG_MATERIAL, FIG_LOADING, self.GRID)
            for w in (1.0, 1.5, 2.0j, -3.0 + 1.0j, 1e3):
                displacement(sol, table, mp, FIG_MATERIAL, FIG_LOADING, w)
            assert mp.univalence is mp.univalence
            assert len(checked) == round_ and checked[-1] is mp

import numpy as np
import pytest

from faberelast import (
    ExteriorMap,
    FarFieldLoading,
    ProximityError,
    QuadratureRule,
    boundary_nodes,
    build_faber,
    cauchy_operator,
    density_mode,
    density_on_boundary,
    equilibrium_residual,
    eval_faber,
    eval_ftilde,
    kelvin_single_layer,
    log_operator,
    required_table_order,
    residual_checks,
    single_layer_interior,
    solve_full,
    transmission_residual,
    validation_checks,
)
from faberelast.oracle import _density_at_nodes, _target_distances
from faberelast.solver import DensitySolution
from util import FIG_MAPS, FIG_MATERIAL, random_loading, random_univalent_map, solved_figure


class TestRule:
    def test_accepts_powers_of_two(self):
        rule = QuadratureRule(256)
        assert len(rule.theta) == 256
        assert abs(rule.weight * 256 - 2.0 * np.pi) < 1e-15

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            QuadratureRule(100)
        with pytest.raises(ValueError):
            QuadratureRule(32)


class TestBoundaryNodes:
    def test_kept_on_the_map_per_node_count(self):
        mp = FIG_MAPS["fig2"]
        mp = ExteriorMap(mp.coefficients)  # a map object of its own
        rule = QuadratureRule(256)
        zeta, h = boundary_nodes(mp, rule)
        np.testing.assert_array_equal(zeta, mp.boundary_point(rule.theta))
        np.testing.assert_array_equal(h, mp.scale_factor(np.zeros(256), rule.theta))
        assert not zeta.flags.writeable
        again = boundary_nodes(mp, QuadratureRule(256))
        assert again[0] is zeta
        assert np.array_equal(again[1].view(np.uint64), h.view(np.uint64))
        other = boundary_nodes(mp, QuadratureRule(512))
        assert len(other[0]) == 512 and boundary_nodes(mp, rule)[0] is zeta

    def test_validate_builds_them_once(self, monkeypatch, tmp_path):
        # the map is summed at the 2048 rule nodes twice: once by the
        # univalence check, which keeps nothing, and once for the kept samples
        from pathlib import Path

        import faberelast.conformal as conformal
        from faberelast.cli import main

        monkeypatch.chdir(tmp_path)
        points = []
        kernel = conformal._blocked_horner
        monkeypatch.setattr(conformal, "_blocked_horner",
                            lambda coef, x: points.append(len(x)) or kernel(coef, x))
        cfg = Path(__file__).resolve().parent.parent / "configs" / "fig1.cfg"
        assert main(["validate", "--config", str(cfg)]) == 0
        assert points.count(2048) == 2


class TestValidationChecks:
    def test_one_interior_sum(self, monkeypatch):
        # the transmission residual and the continuity gap share one sum
        import faberelast.oracle as oracle

        calls = []
        series = oracle._interior_field
        monkeypatch.setattr(oracle, "_interior_field",
                            lambda *args: calls.append(1) or series(*args))
        mapping, mat, loading, table, sol = solved_figure("fig2")
        checks = validation_checks(sol, mapping, table, loading, mat)
        assert len(calls) == 1 and all(c.ok for c in checks)

    @pytest.mark.parametrize("case", ["fig1", "fig2", "fig3", "seeded (12, 120)"])
    def test_transmission_is_that_of_residual_checks(self, case):
        if case.startswith("fig"):
            mapping, mat, loading, table, sol = solved_figure(case)
        else:
            rng = np.random.default_rng(12120)
            mapping, mat, n = random_univalent_map(rng, 12, margin=0.9), FIG_MATERIAL, 132
            loading = random_loading(rng, 120)
            table = build_faber(mapping, required_table_order(mapping, n))
            sol = solve_full(mapping, loading, mat, n, table=table)
        got = validation_checks(sol, mapping, table, loading, mat)[3]
        want = residual_checks(sol, mapping, table, loading, mat)[0]
        assert got.name == want.name == "transmission"
        assert np.float64(got.value).view(np.uint64) == np.float64(want.value).view(np.uint64)
        assert got == want


class TestKelvin:
    def test_zero_density(self):
        mp = ExteriorMap((0.0, 0.2))
        rule = QuadratureRule(256)
        out = kelvin_single_layer(
            np.zeros(256, dtype=complex), mp, FIG_MATERIAL, 2.0 + 0.0j, rule
        )
        assert out == 0.0

    def test_proximity_error(self):
        mp = ExteriorMap(())
        rule = QuadratureRule(256)
        with pytest.raises(ProximityError):
            kelvin_single_layer(
                np.ones(256, dtype=complex), mp, FIG_MATERIAL, 1.01 + 0.0j, rule
            )

    def test_disk_mode_at_origin(self):
        mp = ExteriorMap(())
        table = build_faber(mp, 6)
        sol = DensitySolution(
            s=np.zeros(3, dtype=complex),
            t=np.array([1.0, 0.0, 0.0], dtype=complex),
            c1=0.0,
            c2=0.0,
            c3=0.0,
            order=3,
        )
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mp, rule.theta)
        quad = kelvin_single_layer(phi, mp, FIG_MATERIAL, 0.0 + 0.0j, rule)
        series = single_layer_interior(sol, table, mp, FIG_MATERIAL, 0.0 + 0.0j)
        assert abs(quad - series) < 1e-8

    def test_fig1_random_points(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mapping, rule.theta)
        rng = np.random.default_rng(0)
        for _ in range(10):
            if rng.random() < 0.5:
                z = 0.4 * rng.random() * np.exp(1j * rng.uniform(0, 2 * np.pi))
                series = single_layer_interior(sol, table, mapping, mat, complex(z))
            else:
                w = rng.uniform(1.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                z = complex(mapping.eval(w))
                from faberelast import single_layer_exterior

                series = single_layer_exterior(sol, table, mapping, mat, w)
            quad = kelvin_single_layer(phi, mapping, mat, complex(z), rule)
            assert abs(series - quad) < 1e-6


def _seeded_cases(count, seed):
    """(map, rule, samples, targets) on seeded maps of order 0-12, rules of
    64-4096 nodes and 1-40 targets, half inside and half outside."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        order = k % 13
        shift = 0.2 * (rng.normal() + 1j * rng.normal())
        mp = random_univalent_map(rng, order) if order else ExteriorMap((shift,))
        rule = QuadratureRule(2 ** (6 + k % 7))
        samples = rng.normal(size=rule.q) + 1j * rng.normal(size=rule.q)
        n = int(rng.integers(1, 41))
        outside = mp.eval(rng.uniform(1.6, 4.0, n // 2) * np.exp(2j * np.pi * rng.random(n // 2)))
        # sum k|a_k| <= 0.8 keeps the boundary 0.2 away from a0
        m = n - n // 2
        inside = mp.coefficient(0) + 0.12 * rng.random(m) * np.exp(2j * np.pi * rng.random(m))
        yield mp, rule, samples, np.concatenate([outside, inside])


OPERATORS = {
    "kelvin": lambda s, mp, z, rule: kelvin_single_layer(s, mp, FIG_MATERIAL, z, rule),
    "cauchy": cauchy_operator,
    "log": log_operator,
}


@pytest.mark.parametrize("name", list(OPERATORS))
class TestArrayTargets:
    def test_matches_per_target_calls_bitwise(self, name):
        op = OPERATORS[name]
        for mp, rule, samples, targets in _seeded_cases(40, 12):
            got = op(samples, mp, targets, rule)
            one = np.array([op(samples, mp, complex(z), rule) for z in targets])
            assert got.shape == targets.shape
            assert np.array_equal(got.view(np.uint64), one.view(np.uint64))

    def test_scalar_and_shaped_targets(self, name):
        op = OPERATORS[name]
        mp, rule, samples, targets = next(_seeded_cases(4, 13))
        for z in (complex(targets[0]), targets[0], np.asarray(targets[0])):
            assert type(op(samples, mp, z, rule)) is complex
        grid = np.resize(targets, (3, 4))
        got = op(samples, mp, grid, rule)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), op(samples, mp, grid.ravel(), rule))

    def test_proximity_error_for_any_target(self, name):
        op = OPERATORS[name]
        mp = ExteriorMap(())
        rule = QuadratureRule(256)
        samples = np.ones(256, dtype=complex)
        far = [0.0, 0.3j, 2.0, -3.0 + 1.0j]
        for near in (1.01, 0.97j, -0.98):
            for at in range(len(far) + 1):
                targets = np.array(far[:at] + [near] + far[at:], dtype=complex)
                with pytest.raises(ProximityError):
                    op(samples, mp, targets, rule)


def _complex_kelvin(phi_samples, mapping, mat, x, rule):
    """The complex-arithmetic Kelvin quadrature that the real one replaced."""
    zeta, h = boundary_nodes(mapping, rule)
    x, d, r = _target_distances(x, zeta)
    r2 = r**2
    log_part = (mat.alpha1 / (2.0 * np.pi)) * np.log(r) * phi_samples
    dyad_part = (
        (mat.alpha2 / (2.0 * np.pi))
        * np.real(np.conj(d) * phi_samples)
        * d
        / r2
    )
    integrand = (log_part - dyad_part) * h
    return np.sum(integrand, axis=-1) * rule.weight


def test_kelvin_matches_complex_formula():
    for mp, rule, samples, targets in _seeded_cases(40, 14):
        got = kelvin_single_layer(samples, mp, FIG_MATERIAL, targets, rule)
        want = _complex_kelvin(samples, mp, FIG_MATERIAL, targets, rule)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _random_density(rng, n):
    """A DensitySolution of order n whose modes fall off like 1/m."""
    m = np.arange(1, n + 1)
    s, t = (
        (rng.normal(size=n) + 1j * rng.normal(size=n)) / m for _ in range(2)
    )
    return DensitySolution(s=s, t=t, c1=0.0, c2=0.0, c3=0.0, order=n)


class TestDensityAtNodes:
    """The density at the rule nodes by one FFT, against density_on_boundary."""

    @pytest.mark.parametrize("q", [64, 256, 2048])
    def test_matches_mode_sum(self, q):
        # truncations up to above q: modes from q/2 on fold
        rng = np.random.default_rng(q)
        rule = QuadratureRule(q)
        for order in range(13):
            shift = 0.2 * (rng.normal() + 1j * rng.normal())
            mp = random_univalent_map(rng, order) if order else ExteriorMap((shift,))
            _, h = boundary_nodes(mp, rule)
            for n in (1, 2, q // 2 - 1, q // 2, q // 2 + 1, q, q + 37):
                sol = _random_density(rng, n)
                want = density_on_boundary(sol, mp, rule.theta)
                got = _density_at_nodes(sol, h)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double"
    )
    def test_long_double_reference(self):
        # A solved map of order 12 under loading degree 120, against the sum
        # in long double at exact roots of unity (m j mod q reduced in
        # integers).  The mode-by-mode power recurrence of
        # density_on_boundary reads about 5e-14 against the same reference.
        rng = np.random.default_rng(12120)
        mp = random_univalent_map(rng, 12)
        n = 132
        table = build_faber(mp, required_table_order(mp, n))
        sol = solve_full(mp, random_loading(rng, 120), FIG_MATERIAL, n, table=table)
        rule = QuadratureRule(2048)
        _, h = boundary_nodes(mp, rule)
        k = np.outer(np.arange(1, n + 1), np.arange(rule.q)) % rule.q
        pi = np.longdouble("3.14159265358979323846264338327950288")
        angle = np.arange(rule.q, dtype=np.longdouble) * (2 * pi / rule.q)
        cos, sin = np.cos(angle)[k], np.sin(angle)[k]
        t = sol.t.astype(np.clongdouble)[:, None]
        s = sol.s.astype(np.clongdouble)[:, None]
        ref = (t * (cos + 1j * sin) + s * (cos - 1j * sin)).sum(axis=0) / h
        gap = np.abs(_density_at_nodes(sol, h) - ref).max() / np.abs(ref).max()
        assert gap <= 2e-15


class TestCauchyOperator:
    def test_positive_mode_interior(self):
        rng = np.random.default_rng(1)
        mp = random_univalent_map(rng, 3)
        table = build_faber(mp, 16)
        rule = QuadratureRule(2048)
        z = complex(mp.boundary_point(np.linspace(0, 2 * np.pi, 64)).mean())
        for m in (1, 2, 5):
            got = cauchy_operator(density_mode(mp, m, rule), mp, z, rule)
            assert abs(got + eval_ftilde(table, m, z)) < 1e-8

    def test_negative_mode_interior_vanishes(self):
        rng = np.random.default_rng(2)
        mp = random_univalent_map(rng, 2)
        rule = QuadratureRule(2048)
        z = complex(mp.boundary_point(np.linspace(0, 2 * np.pi, 64)).mean())
        for m in (1, 3):
            got = cauchy_operator(density_mode(mp, -m, rule), mp, z, rule)
            assert abs(got) < 1e-8

    def test_negative_mode_exterior(self):
        rng = np.random.default_rng(3)
        mp = random_univalent_map(rng, 3)
        rule = QuadratureRule(2048)
        w = 1.6 * np.exp(0.9j)
        z = complex(mp.eval(w))
        for m in (1, 2, 4):
            got = cauchy_operator(density_mode(mp, -m, rule), mp, z, rule)
            expected = w ** (-m - 1) / mp.derivative(w)
            assert abs(got - expected) < 1e-8

    def test_conjugated_weight_interior(self):
        rng = np.random.default_rng(4)
        mp = random_univalent_map(rng, 3)
        table = build_faber(mp, 16)
        rule = QuadratureRule(2048)
        zeta, _ = boundary_nodes(mp, rule)
        z = complex(mp.boundary_point(np.linspace(0, 2 * np.pi, 64)).mean())
        for m in (1, 2):
            samples = np.conj(zeta) * density_mode(mp, m, rule)
            got = cauchy_operator(samples, mp, z, rule)
            expected = -sum(
                np.conj(mp.coefficient(k)) * eval_ftilde(table, k + m, z)
                for k in range(-1, mp.order + 1)
            )
            assert abs(got - expected) < 1e-8


class TestLogOperator:
    def test_negative_mode_interior(self):
        rng = np.random.default_rng(5)
        mp = random_univalent_map(rng, 3)
        table = build_faber(mp, 16)
        rule = QuadratureRule(2048)
        z = complex(mp.boundary_point(np.linspace(0, 2 * np.pi, 64)).mean())
        for m in (1, 2, 6):
            got = log_operator(density_mode(mp, -m, rule), mp, z, rule)
            expected = -np.conj(eval_faber(table, m, z)) / (2.0 * m)
            assert abs(got - expected) < 1e-8

    def test_positive_mode_exterior(self):
        rng = np.random.default_rng(6)
        mp = random_univalent_map(rng, 2)
        table = build_faber(mp, 16)
        rule = QuadratureRule(2048)
        w = 1.7 * np.exp(2.2j)
        z = complex(mp.eval(w))
        for m in (1, 3):
            got = log_operator(density_mode(mp, m, rule), mp, z, rule)
            expected = -(eval_faber(table, m, z) - w**m + np.conj(w**-m)) / (2.0 * m)
            assert abs(got - expected) < 1e-8

    def test_mean_of_log_on_unit_circle(self):
        mp = ExteriorMap(())
        rule = QuadratureRule(1024)
        got = log_operator(np.ones(1024, dtype=complex), mp, 0.0 + 0.0j, rule)
        assert abs(got) < 1e-12

    def test_proximity_errors(self):
        mp = ExteriorMap(())
        rule = QuadratureRule(256)
        samples = np.ones(256, dtype=complex)
        with pytest.raises(ProximityError):
            cauchy_operator(samples, mp, 0.98 + 0.0j, rule)
        with pytest.raises(ProximityError):
            log_operator(samples, mp, 1.02 + 0.0j, rule)


class TestSimplifiedKernelIdentity:
    def test_assembled_from_operators(self):
        # fundamental-matrix quadrature equals the log/Cauchy assembly
        # 2S = 2 a1 L[phi] - a2 z conj(C[phi]) + a2 conj(C[conj(zeta) phi])
        rng = np.random.default_rng(7)
        mp = random_univalent_map(rng, 3)
        rule = QuadratureRule(2048)
        zeta, _ = boundary_nodes(mp, rule)
        phi = (
            (0.4 - 0.2j) * density_mode(mp, -2, rule)
            + (1.0 + 0.3j) * density_mode(mp, 1, rule)
            + 0.7j * density_mode(mp, 3, rule)
        )
        mat = FIG_MATERIAL
        for z in (
            complex(mp.boundary_point(np.linspace(0, 2 * np.pi, 64)).mean()),
            complex(mp.eval(2.0 * np.exp(0.5j))),
        ):
            direct = 2.0 * kelvin_single_layer(phi, mp, mat, z, rule)
            assembled = (
                2.0 * mat.alpha1 * log_operator(phi, mp, z, rule)
                - mat.alpha2 * z * np.conj(cauchy_operator(phi, mp, z, rule))
                + mat.alpha2
                * np.conj(cauchy_operator(np.conj(zeta) * phi, mp, z, rule))
            )
            assert abs(direct - assembled) < 1e-8


class TestTransmissionResidual:
    def test_zero_loading(self):
        mp = ExteriorMap((0.0, 0.1))
        table = build_faber(mp, 10)
        load = FarFieldLoading([0.0], [0.0])
        sol = solve_full(mp, load, FIG_MATERIAL, 6, table=table)
        assert transmission_residual(sol, mp, table, load, FIG_MATERIAL, 64) == 0.0

    def test_figure_config(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        assert transmission_residual(sol, mapping, table, loading, mat, 256) < 1e-6

    def test_c3_sensitivity(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        bumped = DensitySolution(
            s=sol.s, t=sol.t, c1=sol.c1, c2=sol.c2, c3=sol.c3 + 1e-3, order=sol.order
        )
        base = transmission_residual(sol, mapping, table, loading, mat, 256)
        assert (
            transmission_residual(bumped, mapping, table, loading, mat, 256)
            >= base + 1e-4
        )


class TestEquilibriumResidual:
    def test_zero_solution(self):
        mp = ExteriorMap((0.0, 0.1))
        sol = DensitySolution(
            s=np.zeros(4, dtype=complex),
            t=np.zeros(4, dtype=complex),
            c1=0.0,
            c2=0.0,
            c3=0.0,
            order=4,
        )
        np.testing.assert_allclose(equilibrium_residual(sol, mp, 256), 0.0, atol=0.0)

    def test_solved_configurations(self):
        for name in ("fig1", "fig2", "fig3"):
            mapping, _, _, _, sol = solved_figure(name)
            assert equilibrium_residual(sol, mapping, 2048).max() < 1e-8

    def test_t1_shift_sensitivity(self):
        mapping, _, _, _, sol = solved_figure("fig2")
        t = sol.t.copy()
        t[0] += 1e-2j
        bumped = DensitySolution(
            s=sol.s, t=t, c1=sol.c1, c2=sol.c2, c3=sol.c3, order=sol.order
        )
        assert equilibrium_residual(bumped, mapping, 2048)[2] >= 1e-3

    @pytest.mark.parametrize("order", [5, 48, 200])
    def test_only_the_rotation_moment_constrains(self, order):
        # any density of order below q: the two force moments read rounding,
        # the rotation moment is 2 pi |Im(t_1 + sum_k conj(a_k) s_k)|
        mapping = FIG_MAPS["fig2"]
        rng = np.random.default_rng(2048)
        s, t = (rng.normal(size=order) + 1j * rng.normal(size=order) for _ in range(2))
        sol = DensitySolution(s=s, t=t, c1=0.0, c2=0.0, c3=0.0, order=order)
        eq = equilibrium_residual(sol, mapping, 2048)
        assert eq[0] <= 1e-14 and eq[1] <= 1e-14
        a = np.array(mapping.coefficients[1:])
        rotation = 2.0 * np.pi * abs((t[0] + np.sum(np.conj(a) * s[: len(a)])).imag)
        assert rotation > 1e-3  # far above rounding
        assert abs(eq[2] - rotation) <= 1e-13 * rotation


class TestTrapezoidConvergence:
    def test_halving_study(self):
        # quadrature-vs-series gap shrinks at least geometrically with Q;
        # keep the target near the boundary so Q = 64 is not yet converged
        mapping, mat, loading, table, sol = solved_figure("fig3", 24)
        from faberelast import single_layer_exterior

        w = 1.12 * np.exp(0.8j)
        z = complex(mapping.eval(w))
        series = single_layer_exterior(sol, table, mapping, mat, w)
        gaps = []
        for q in (64, 128, 256):
            rule = QuadratureRule(q)
            phi = density_on_boundary(sol, mapping, rule.theta)
            quad = kelvin_single_layer(phi, mapping, mat, z, rule)
            gaps.append(abs(series - quad))
        assert gaps[0] > 1e-12  # visibly unconverged at the coarsest rule
        assert gaps[1] <= 0.5 * gaps[0] + 1e-13
        assert gaps[2] <= 0.5 * gaps[1] + 1e-13

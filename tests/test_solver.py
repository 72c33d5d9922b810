import numpy as np
import pytest

from faberelast import (
    DegenerateRotationError,
    ExteriorMap,
    FarFieldLoading,
    Material,
    TruncationError,
    build_AD,
    build_faber,
    build_y,
    coupling_block,
    density_on_boundary,
    eval_u0,
    required_table_order,
    solve_block,
    solve_c12,
    solve_c3,
    solve_full,
    solve_t,
    system_residual,
    transmission_residual,
)
from faberelast.faber import _derivative_coefficients
from util import (
    FIG_LOADING,
    FIG_MAPS,
    FIG_MATERIAL,
    HARD_SHAPES,
    random_loading,
    random_univalent_map,
    solved_figure,
)


class TestSolveT:
    def test_zero(self):
        t = solve_t(FarFieldLoading([0.0], [0.0]), FIG_MATERIAL, 0.0, 6)
        np.testing.assert_allclose(t, 0.0, atol=0.0)

    def test_second_mode(self):
        mat = Material.from_figure_params(0.5, 2.0)  # alpha2 = 1/4
        load = FarFieldLoading([0.0, 0.0, 1.0], [0.0])
        t = solve_t(load, mat, 0.0, 4)
        assert abs(t[1] - 8.0) < 1e-14

    def test_first_mode_without_rotation(self):
        load = FarFieldLoading([0.0, 1.0], [0.0])
        t = solve_t(load, FIG_MATERIAL, 0.0, 4)
        assert abs(t[0] - 0.6) < 1e-15

    def test_first_mode_rotation_weight(self):
        # the c3 coefficient is 2/((kappa+1) alpha2)
        load = FarFieldLoading([0.0], [0.0])
        c3 = 0.7
        t = solve_t(load, FIG_MATERIAL, c3, 3)
        expected = 2j * c3 / ((FIG_MATERIAL.kappa + 1.0) * FIG_MATERIAL.alpha2)
        assert abs(t[0] - expected) < 1e-15


class TestBuildAD:
    def test_ellipse_A_vanishes(self):
        A, _ = build_AD(ExteriorMap((0.0, 0.3 + 0.2j)), 6)
        assert np.abs(A).max() == 0.0

    def test_order3_structure(self):
        a2, a3 = 0.07 - 0.02j, 0.05 + 0.01j
        A, D = build_AD(ExteriorMap((0.0, 0.1, a2, a3)), 6)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = a2
        expected[0, 1] = a3
        expected[1, 0] = a3
        np.testing.assert_allclose(A, expected, atol=0.0)

    def test_D_entries(self):
        _, D = build_AD(ExteriorMap((0.0, 0.1)), 5)
        assert D[2, 2] == 1.0 / 3.0
        assert np.abs(D - np.diag(np.diag(D))).max() == 0.0


class TestBuildY:
    def test_shifted_disk_rotation_channel(self):
        # map w + 1: the rotation forcing is the constant -2i/(kappa+1)
        mp = ExteriorMap((1.0,))
        table = build_faber(mp, 8)
        load = FarFieldLoading([0.0], [0.0])
        y1, y2, j01, j02 = build_y(mp, table, load, FIG_MATERIAL, 6)
        np.testing.assert_allclose(y1, 0.0, atol=1e-15)
        np.testing.assert_allclose(y2, 0.0, atol=1e-15)
        expected_j01 = 2j / ((FIG_MATERIAL.kappa + 1.0) * FIG_MATERIAL.alpha2)
        assert abs(j01 - expected_j01) < 1e-15
        assert j02 == 0.0

    def test_pure_disk_rotation_channel_empty(self):
        mp = ExteriorMap(())
        table = build_faber(mp, 8)
        y1, y2, j01, j02 = build_y(
            mp, table, FarFieldLoading([0.0], [0.0]), FIG_MATERIAL, 6
        )
        assert np.abs(y1).max() == 0.0 and j01 == 0.0

    def test_ellipse_rotation_forcing(self):
        # J1 = -i a/(kappa+1) * conj(F_2') = -2i a/(kappa+1) * conj(F_1)
        a = 0.1 + 0.1j
        mp = ExteriorMap((0.0, a))
        table = build_faber(mp, 10)
        y1, _, j01, _ = build_y(
            mp, table, FarFieldLoading([0.0], [0.0]), FIG_MATERIAL, 8
        )
        expected = 2j * a / ((FIG_MATERIAL.kappa + 1.0) * FIG_MATERIAL.alpha2)
        assert abs(y1[0] - expected) < 1e-15
        assert np.abs(y1[1:]).max() < 1e-15
        assert abs(j01) < 1e-15

    def test_single_B_mode(self):
        rng = np.random.default_rng(0)
        mp = random_univalent_map(rng, 3)
        table = build_faber(mp, 12)
        load = FarFieldLoading([0.0], [0.0, 1.0])
        _, y2, _, j02 = build_y(mp, table, load, FIG_MATERIAL, 8)
        assert abs(y2[0] + 1.0 / FIG_MATERIAL.alpha2) < 1e-15
        assert np.abs(y2[1:]).max() < 1e-15
        assert abs(j02) < 1e-15

    def test_truncation_flag(self):
        mp = ExteriorMap((0.0, 0.1, 0.05, 0.02))
        table = build_faber(mp, 20)
        load = FarFieldLoading(np.zeros(7).tolist() + [1.0], [0.0])  # degree 7
        with pytest.raises(TruncationError):
            build_y(mp, table, load, FIG_MATERIAL, 4)


class TestSolveBlock:
    def test_ellipse_diagonal(self):
        mp = FIG_MAPS["fig1"]
        table = build_faber(mp, 12)
        rng = np.random.default_rng(1)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        u1, u2 = solve_block(mp, table, y, 0.0 * y, FIG_MATERIAL, 8)
        expected = np.arange(1, 9) * y / FIG_MATERIAL.kappa
        np.testing.assert_allclose(u1, expected, rtol=1e-14)
        np.testing.assert_allclose(u2, 0.0, atol=0.0)

    def test_order2_diagonal(self):
        mp = FIG_MAPS["fig2"]
        table = build_faber(mp, 12)
        E = coupling_block(mp, table, 8)
        assert np.abs(E).max() == 0.0

    def test_order3_single_entry(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            mp = random_univalent_map(rng, 3)
            table = build_faber(mp, 12)
            E = coupling_block(mp, table, 8)
            mask = np.abs(E) > 0
            assert mask[0, 0]
            assert mask.sum() == 1
            # the single entry is a3 itself: conj(gamma_{2,1}) a_3 / 2 = a_3
            assert abs(E[0, 0] - mp.coefficient(3)) < 1e-14

    def test_matches_dense_matrix_product(self):
        # the analytic block equals conj(Gamma)^T D A formed literally
        rng = np.random.default_rng(3)
        mp = random_univalent_map(rng, 5)
        n = 10
        table = build_faber(mp, n + mp.order + 1)
        A, D = build_AD(mp, n)
        dense = np.conj(table.gamma[:n, :n]).T @ D @ A
        np.testing.assert_allclose(
            coupling_block(mp, table, n), dense, atol=1e-14
        )

    def test_singular_block_rejected(self):
        from faberelast import SingularBlockError

        # for an order-3 map the reduced block determinant is kappa^2 - |a3|^2
        mat = Material.from_figure_params(0.5, 0.1)
        mp = ExteriorMap((0.0, 0.05, 0.02, 0.1))
        table = build_faber(mp, 16)
        y = np.ones(8, dtype=complex)
        with pytest.raises(SingularBlockError):
            solve_block(mp, table, y, y, mat, 8)

    def test_one_condition_number_for_both_sides(self, monkeypatch):
        mp = random_univalent_map(np.random.default_rng(4), 5)
        table = build_faber(mp, 16)
        y1, y2 = np.ones(10, dtype=complex), np.arange(10) * 1j
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
        u1, u2 = solve_block(mp, table, y1, y2, FIG_MATERIAL, 10)
        assert len(calls) == 1
        assert not np.array_equal(u1, u2)

    def test_unreduced_equation_holds(self):
        rng = np.random.default_rng(4)
        for order in (3, 4, 5):
            mp = random_univalent_map(rng, order)
            n = 10
            table = build_faber(mp, n + order + 1)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            u, _ = solve_block(mp, table, y, np.zeros(n, dtype=complex), FIG_MATERIAL, n)
            A, D = build_AD(mp, n)
            lhs = FIG_MATERIAL.kappa * u @ D + np.conj(u) @ A @ D @ np.conj(
                table.gamma[:n, :n]
            )
            np.testing.assert_allclose(lhs, y, atol=1e-12)


class TestRotationConstant:
    def test_disk_real_loading(self):
        mp = ExteriorMap(())
        u1 = np.zeros(4, dtype=complex)
        u2 = np.zeros(4, dtype=complex)
        load = FarFieldLoading([0.0, 1.0], [0.0])
        assert solve_c3(u1, u2, mp, load, FIG_MATERIAL) == 0.0

    def test_pure_rotation_disk(self):
        # far-field u0 = i omega z is stress free: the exact solution is a
        # zero density and a co-rotating inclusion, c3 = -omega
        mp = ExteriorMap(())
        mat = Material.from_lame(0.7, 1.2)
        omega = (mat.kappa + 1.0) / 2.0
        load = FarFieldLoading([0.0, 1.0j], [0.0])
        table = build_faber(mp, 10)
        sol = solve_full(mp, load, mat, 8, table=table)
        assert abs(sol.c3 + omega) < 1e-14
        assert np.abs(sol.s).max() < 1e-14
        assert np.abs(sol.t).max() < 1e-14
        assert transmission_residual(sol, mp, table, load, mat, 128) < 1e-13

    def test_shifted_disk_rotation_constants(self):
        # same physics on the map w + 1: rigid value i omega z + i/2 on the
        # boundary, so c1 = 0, c2 = -kappa/2 ... derived from u0 = i(k+1)(z-1)/2 + i/2
        mp = ExteriorMap((1.0,))
        load = FarFieldLoading([0.0, 1.0j], [0.0])
        table = build_faber(mp, 10)
        sol = solve_full(mp, load, FIG_MATERIAL, 8, table=table)
        kappa = FIG_MATERIAL.kappa
        assert abs(sol.c3 + (kappa + 1.0) / 2.0) < 1e-14
        assert abs(sol.c1) < 1e-14
        assert abs(sol.c2 + kappa / 2.0) < 1e-14
        assert transmission_residual(sol, mp, table, load, FIG_MATERIAL, 128) < 1e-13

    def test_scaling_linearity(self):
        mapping, mat, loading, table, sol = solved_figure("fig3", 24)
        tau = 2.5
        sol_scaled = solve_full(mapping, loading.scaled(tau), mat, 24, table=table)
        assert abs(sol_scaled.c3 - tau * sol.c3) < 1e-12

    def test_degenerate_denominator(self):
        mp = ExteriorMap((0.0, 0.5))
        load = FarFieldLoading([0.0, 1.0], [0.0])
        kap1 = FIG_MATERIAL.kappa + 1.0
        # craft u1 with Im(u1 . conj(a)) = -2/((kappa+1) alpha2)
        u1 = np.zeros(4, dtype=complex)
        u1[0] = -2j / (kap1 * FIG_MATERIAL.alpha2 * 0.5)
        with pytest.raises(DegenerateRotationError):
            solve_c3(u1, np.zeros(4, dtype=complex), mp, load, FIG_MATERIAL)


class TestTranslationConstants:
    def test_zero_everything(self):
        mp = FIG_MAPS["fig2"]
        table = build_faber(mp, 12)
        load = FarFieldLoading([0.0], [0.0])
        sol = solve_full(mp, load, FIG_MATERIAL, 8, table=table)
        assert sol.c1 == sol.c2 == sol.c3 == 0.0
        assert np.abs(sol.s).max() == 0.0 and np.abs(sol.t).max() == 0.0

    def test_pure_translation_loading(self):
        # A0 alone shifts the medium rigidly: c1 + i c2 = kappa A0 / 2
        rng = np.random.default_rng(5)
        mp = random_univalent_map(rng, 4)
        table = build_faber(mp, required_table_order(mp, 8))
        A0 = 1.0
        load = FarFieldLoading([A0], [0.0])
        sol = solve_full(mp, load, FIG_MATERIAL, 8, table=table)
        assert np.abs(sol.s).max() < 1e-14
        assert abs(sol.c3) < 1e-14
        assert abs(sol.c1 + 1j * sol.c2 - FIG_MATERIAL.kappa * A0 / 2.0) < 1e-13

    def test_B0_translation(self):
        mp = FIG_MAPS["fig1"]
        table = build_faber(mp, 12)
        B0 = 2.0 - 1.0j
        load = FarFieldLoading([0.0], [B0])
        sol = solve_full(mp, load, FIG_MATERIAL, 8, table=table)
        assert abs(sol.c1 + 1j * sol.c2 + np.conj(B0) / 2.0) < 1e-13
        assert (
            transmission_residual(sol, mp, table, load, FIG_MATERIAL, 128) < 1e-13
        )


class TestSolveFull:
    def test_figure_configs_certify(self):
        for name in ("fig1", "fig2", "fig3"):
            mapping, mat, loading, table, sol = solved_figure(name)
            res = transmission_residual(sol, mapping, table, loading, mat, 256)
            assert res < 1e-6

    def test_fig1_hand_values(self):
        _, _, _, _, sol = solved_figure("fig1")
        # closed form for the ellipse: c3 = -(kappa+1) Im a / (2 (kappa + |a|^2))
        assert abs(sol.c3 + 0.203125) < 1e-12
        assert abs(sol.s[0] - (-2.1375 - 0.2625j)) < 1e-12
        assert abs(sol.t[0] - (0.6 - 0.1875j)) < 1e-12
        assert abs(sol.c1) < 1e-13 and abs(sol.c2) < 1e-13

    def test_degree_80_transmission(self):
        rng = np.random.default_rng(21)
        q = 256
        theta = 2.0 * np.pi * np.arange(q) / q
        for _ in range(10):
            mp = random_univalent_map(rng, int(rng.integers(1, 13)))
            mat = Material.from_lame(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            loading = random_loading(rng, 80)
            n = 80 + mp.order
            table = build_faber(mp, required_table_order(mp, n))
            sol = solve_full(mp, loading, mat, n, table=table)
            u0 = eval_u0(loading, table, mat, mp.boundary_point(theta))
            res = transmission_residual(sol, mp, table, loading, mat, q)
            assert res <= 1e-10 * max(1.0, float(np.abs(u0).max()))

    def test_truncation_independence(self):
        # truncation only limits the loading degree: at loading degree p and
        # map order M, the modes end at p + M - 1, and every n from p + M to
        # 3 (p + M) gives the same bits of s, t, c1, c2 and c3
        rng = np.random.default_rng(17)
        for M, p in ((1, 1), (3, 4), (7, 20), (12, 60)):
            mp = random_univalent_map(rng, M)
            mat = Material.from_lame(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            loading = random_loading(rng, p)
            k = p + M
            ref = solve_full(mp, loading, mat, k)
            assert np.flatnonzero((ref.s != 0) | (ref.t != 0))[-1] == k - 2
            for n in {*rng.integers(k + 1, 3 * k, size=3).tolist(), 3 * k}:
                sol = solve_full(mp, loading, mat, n)
                np.testing.assert_array_equal(sol.s[:k], ref.s)
                np.testing.assert_array_equal(sol.t[:k], ref.t)
                assert not sol.s[k:].any() and not sol.t[k:].any()
                assert (sol.c1, sol.c2, sol.c3) == (ref.c1, ref.c2, ref.c3)

    def test_tail_closed_form(self):
        rng = np.random.default_rng(6)
        mp = random_univalent_map(rng, 5)
        n = 12
        table = build_faber(mp, required_table_order(mp, n))
        loading = random_loading(rng, 6)
        sol = solve_full(mp, loading, FIG_MATERIAL, n, table=table)
        y1, y2, _, _ = build_y(mp, table, loading, FIG_MATERIAL, n)
        y = sol.c3 * y1 + y2
        for m in range(mp.order - 1, n + 1):
            expected = m * y[m - 1] / FIG_MATERIAL.kappa
            assert abs(sol.s[m - 1] - expected) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        mp = random_univalent_map(rng, 3)
        n = 12
        table = build_faber(mp, required_table_order(mp, n))
        la = random_loading(rng, 3)
        lb = random_loading(rng, 4)
        sa = solve_full(mp, la, FIG_MATERIAL, n, table=table)
        sb = solve_full(mp, lb, FIG_MATERIAL, n, table=table)
        sab = solve_full(mp, la + lb, FIG_MATERIAL, n, table=table)
        np.testing.assert_allclose(sab.s, sa.s + sb.s, atol=1e-10)
        np.testing.assert_allclose(sab.t, sa.t + sb.t, atol=1e-10)
        assert abs(sab.c3 - (sa.c3 + sb.c3)) < 1e-10

    def test_decomposition_identity(self):
        rng = np.random.default_rng(8)
        for order in (1, 2, 3, 5):
            mp = random_univalent_map(rng, order)
            n = 14
            table = build_faber(mp, required_table_order(mp, n))
            loading = random_loading(rng, 4)
            sol = solve_full(mp, loading, FIG_MATERIAL, n, table=table)
            assert system_residual(sol, mp, table, loading, FIG_MATERIAL) < 1e-10

    def test_rotation_constraint(self):
        # equilibrium ties Im(s . conj(a)) to Im(A1) and c3
        rng = np.random.default_rng(9)
        for order in (1, 3, 4):
            mp = random_univalent_map(rng, order)
            n = 12
            table = build_faber(mp, required_table_order(mp, n))
            loading = random_loading(rng, 3)
            mat = FIG_MATERIAL
            sol = solve_full(mp, loading, mat, n, table=table)
            pair = sum(
                sol.s[m - 1] * np.conj(mp.coefficient(m)) for m in range(1, n + 1)
            )
            residual = (
                np.imag(pair)
                + np.imag(loading.coefficient_A(1)) / mat.alpha2
                + 2.0 * sol.c3 / ((mat.kappa + 1.0) * mat.alpha2)
            )
            assert abs(residual) < 1e-8

    def test_t1_relation_exact(self):
        mapping, mat, loading, table, sol = solved_figure("fig2", 16)
        expected = loading.coefficient_A(1) / mat.alpha2 + 2j * sol.c3 / (
            (mat.kappa + 1.0) * mat.alpha2
        )
        assert abs(sol.t[0] - expected) < 1e-12

    def test_real_coefficient_views(self):
        _, _, _, _, sol = solved_figure("fig1", 12)
        np.testing.assert_array_equal(sol.s1, sol.s.real)
        np.testing.assert_array_equal(sol.s2, sol.s.imag)
        np.testing.assert_array_equal(sol.s3, sol.t.real)
        np.testing.assert_array_equal(sol.s4, sol.t.imag)

    def test_loading_degree_above_order(self):
        mp = ExteriorMap((0.0, 0.1))
        load = FarFieldLoading(np.zeros(9).tolist() + [1.0], [0.0])
        with pytest.raises(TruncationError):
            solve_full(mp, load, FIG_MATERIAL, 4)


def _envelope_cases(seed: int) -> list:
    """(name, map, degree): the hard shapes at degree 60, and seeded maps of
    order <= 24, degree <= 200 and margin <= 0.99, the corner (24, 200, 0.99) first."""
    rng = np.random.default_rng(seed)
    draws = [(24, 200, 0.99)] + [
        (int(rng.integers(1, 25)), int(rng.integers(1, 201)), rng.uniform(0.5, 0.99))
        for _ in range(5)
    ]
    cases = [(name, HARD_SHAPES[name], 60) for name in sorted(HARD_SHAPES)]
    for i, (order, degree, margin) in enumerate(draws):
        mp = random_univalent_map(np.random.default_rng(500 + i), order, margin=margin)
        cases.append((f"seeded ({order}, {degree}, {margin:.2f})", mp, degree))
    return cases


class TestLinearityEnvelope:
    """The solve is linear in the loading, over the envelope."""

    def test_sum_of_loadings(self):
        for name, mp, p in _envelope_cases(55):
            lr = np.random.default_rng(p)
            la, lb = random_loading(lr, p), random_loading(lr, int(lr.integers(0, p + 1)))
            n = p + max(mp.order, 1)
            table = build_faber(mp, required_table_order(mp, n))
            sa, sb, sab = (solve_full(mp, ld, FIG_MATERIAL, n, table=table)
                           for ld in (la, lb, la + lb))
            for key in ("s", "t", "c"):
                a, b, ab = (
                    np.array([x.c1, x.c2, x.c3]) if key == "c" else getattr(x, key)
                    for x in (sa, sb, sab)
                )
                gap = np.abs(ab - (a + b)).max() / (np.abs(a) + np.abs(b)).max()
                assert gap <= 1e-13, (name, key, gap)


class TestTranslationEnvelope:
    """Covariance of the solve under z -> z + c, over the envelope.

    Translating the map by c (a_0 -> a_0 + c) shifts every Faber
    polynomial, F_m^c(z) = F_m(z - c), so a loading with the same Faber
    coefficients is the old one moved by c, except for the z conj(h')
    term of u0: z conj(h'(z - c)) = (z - c) conj(h'(z - c)) + c conj(h'(z - c)).
    The extra -(c/2) conj(h') is the l-term -conj(l)/2 of l = conj(c) h',
    whose Faber coefficients are conj(c) e with e those of h' =
    sum_m A_m F_m' (``_derivative_coefficients``).  So solving on the
    moved map with (A, B) is solving on the map with (A, B + conj(c) e),
    moved by c: s, t and c3 agree, and since the rigid motion is
    c1 + i c2 - i c3 z, the moved c1 + i c2 is the other plus i c3 c.
    """

    def test_moved_map_against_moved_loading(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for name, mp, p in _envelope_cases(71):
            c = complex(rng.normal(), rng.normal())
            loading = random_loading(rng, p)
            n = p + max(mp.order, 1)
            table = build_faber(mp, required_table_order(mp, n))
            e = _derivative_coefficients(loading.A, table.d)
            shifted = FarFieldLoading(loading.A, loading.B + np.conj(c) * np.append(e, 0.0))
            base = solve_full(mp, shifted, FIG_MATERIAL, n, table=table)
            moved_map = ExteriorMap((mp.coefficient(0) + c, *mp.coefficients[1:]))
            moved = solve_full(moved_map, loading, FIG_MATERIAL, n)
            c12 = complex(base.c1, base.c2)
            c_scale = max(abs(c12), abs(base.c3 * c), abs(base.c3))
            gaps = {
                "s": np.abs(moved.s - base.s).max() / np.abs(base.s).max(),
                "t": np.abs(moved.t - base.t).max() / np.abs(base.t).max(),
                "c3": abs(moved.c3 - base.c3) / c_scale,
                "c12": abs(complex(moved.c1, moved.c2) - (c12 + 1j * base.c3 * c)) / c_scale,
            }
            for key, gap in gaps.items():
                assert gap <= 1e-12, (name, key, gap)
                worst = max(worst, gap)
        assert worst > 0.0  # the cases are not all trivial


class TestRotationMomentEnvelope:
    """``TestSolveFull::test_rotation_constraint`` over the envelope, scaled relatively.

    Im(sum_m s_m conj(a_m)) + Im(A_1)/alpha2 + 2 c3/((kappa + 1) alpha2) = 0,
    each term measured against the sum of the magnitudes it is made of.
    """

    def test_moment_vanishes(self):
        mat = FIG_MATERIAL
        for name, mp, p in _envelope_cases(83):
            loading = random_loading(np.random.default_rng(p + 1), p)
            n = p + max(mp.order, 1)
            sol = solve_full(mp, loading, mat, n)
            a = np.conj(mp.coefficients[1 : n + 1])
            terms = sol.s[: len(a)] * a
            moment = (
                np.imag(terms.sum())
                + np.imag(loading.coefficient_A(1)) / mat.alpha2
                + 2.0 * sol.c3 / ((mat.kappa + 1.0) * mat.alpha2)
            )
            scale = (np.abs(terms).sum() + abs(loading.coefficient_A(1)) / mat.alpha2
                     + abs(2.0 * sol.c3 / ((mat.kappa + 1.0) * mat.alpha2)))
            assert abs(moment) <= 1e-13 * scale, (name, abs(moment) / scale)


class TestDensityOnBoundary:
    def test_zero_solution(self):
        mapping = FIG_MAPS["fig1"]
        table = build_faber(mapping, 10)
        load = FarFieldLoading([0.0], [0.0])
        sol = solve_full(mapping, load, FIG_MATERIAL, 6, table=table)
        theta = np.linspace(0.0, 2.0 * np.pi, 32)
        np.testing.assert_allclose(
            density_on_boundary(sol, mapping, theta), 0.0, atol=0.0
        )

    def test_mean_free(self):
        # the m = 0 mode is absent: (1/2pi) int phi h dtheta = 0
        mapping, _, _, _, sol = solved_figure("fig3", 24)
        q = 2048
        theta = 2.0 * np.pi * np.arange(q) / q
        phi = density_on_boundary(sol, mapping, theta)
        h = mapping.scale_factor(np.zeros(q), theta)
        assert abs(np.mean(phi * h)) < 1e-10

    def test_single_mode_shape(self):
        mapping = FIG_MAPS["fig2"]
        from faberelast.solver import DensitySolution

        sol = DensitySolution(
            s=np.array([0.0, 2.0 + 1.0j]),
            t=np.array([1.0, 0.0]),
            c1=0.0,
            c2=0.0,
            c3=0.0,
            order=2,
        )
        theta = np.array([0.0, 1.1, 3.9])
        h = mapping.scale_factor(np.zeros(3), theta)
        expected = ((2.0 + 1.0j) * np.exp(-2j * theta) + np.exp(1j * theta)) / h
        np.testing.assert_allclose(
            density_on_boundary(sol, mapping, theta), expected, rtol=1e-14
        )


# -- frozen copies of the Gamma-based assembly, kept as references ---------


def _ref_accumulate_ftilde(table, j, weight, coeffs, const):
    if j <= 0:
        return const
    scale = weight / j
    if j > 1:
        coeffs[: j - 1] += scale * np.conj(table.gamma[j - 1, : j - 1])
    return const + scale * np.conj(table.gamma0[j - 1])


def _ref_build_y(mapping, table, loading, mat, n):
    M = mapping.order
    p = loading.degree
    width = table.order
    c1v = np.zeros(width, dtype=complex)
    c2v = np.zeros(width, dtype=complex)
    j1const = 0.0 + 0.0j
    j2const = 0.0 + 0.0j
    pref = -2j / (mat.kappa + 1.0)
    for k in range(0, M + 1):
        ak = mapping.coefficient(k)
        if ak != 0:
            j1const = _ref_accumulate_ftilde(table, k + 1, pref * ak, c1v, j1const)
    for m in range(1, min(p, width) + 1):
        bm = loading.coefficient_B(m)
        if bm != 0:
            c2v[m - 1] += np.conj(bm)
        am = loading.coefficient_A(m)
        if am != 0:
            wgt = m * np.conj(am)
            for k in range(-1, M + 1):
                ak = mapping.coefficient(k)
                if ak != 0:
                    j2const = _ref_accumulate_ftilde(table, k + m, wgt * ak, c2v, j2const)
    y1full = -c1v / mat.alpha2
    y2full = -c2v / mat.alpha2
    return y1full[:n], y2full[:n], -j1const / mat.alpha2, -j2const / mat.alpha2


def _ref_coupling_block(mapping, table, n):
    M = mapping.order
    E = np.zeros((n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j >= M:
                continue
            acc = 0.0 + 0.0j
            for k in range(i + 1, M - j + 1):
                acc += np.conj(table.gamma[k - 1, i - 1]) * mapping.coefficient(k + j) / k
            E[i - 1, j - 1] = acc
    return E


def _ref_c12_lhs(s, mapping, table):
    M = mapping.order
    lhs = 0.0 + 0.0j
    for m in range(1, len(s) + 1):
        for j in range(1, M - m + 1):
            lhs += (
                np.conj(s[m - 1])
                * mapping.coefficient(m + j)
                * np.conj(table.gamma0[j - 1])
                / j
            )
    return lhs


def _ref_gamma(table):
    """The eager Gamma and gamma0 construction of the Gamma-storing table."""
    n = table.order
    d = table.d
    m = np.arange(1, n + 1)
    lag = m[:, None] - m[None, :] - 1
    gamma = np.where(lag >= 0, m[:, None] * d[np.maximum(lag, 0)], 0.0)
    return gamma, m * d


def _close(new, ref, rtol=1e-13):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    scale = max(np.abs(ref).max(initial=0.0), np.abs(new).max(initial=0.0))
    assert np.abs(new - ref).max(initial=0.0) <= rtol * scale


def _seeded_map(rng, order):
    if order == 0:
        return ExteriorMap((0.3 - 0.2j,))
    return random_univalent_map(rng, order, margin=0.9)


def _loadings(rng, p):
    full = random_loading(rng, p)
    zeros = np.zeros(p + 1, dtype=complex)
    return {
        "full": full,
        "A_only": FarFieldLoading(full.A, zeros),
        "B_only": FarFieldLoading(zeros, full.B),
        "zero": FarFieldLoading([0.0], [0.0]),
    }


ORDERS_AND_DEGREES = [
    (0, 1), (0, 40), (1, 1), (1, 60), (2, 3), (2, 120), (3, 1), (3, 80),
    (5, 20), (5, 200), (8, 10), (8, 150), (12, 120), (12, 200), (24, 60), (24, 200),
]


class TestAssemblyMatchesGammaReference:
    """The d-based assembly against the Gamma-based loops it replaced."""

    @pytest.mark.parametrize("order,degree", ORDERS_AND_DEGREES)
    def test_build_y(self, order, degree):
        rng = np.random.default_rng(1000 * order + degree)
        mp = _seeded_map(rng, order)
        n = degree + order
        for extra in (0, 17):  # the required table and a larger one
            table = build_faber(mp, required_table_order(mp, n) + extra)
            for load in _loadings(rng, degree).values():
                new = build_y(mp, table, load, FIG_MATERIAL, n)
                ref = _ref_build_y(mp, table, load, FIG_MATERIAL, n)
                for got, want in zip(new, ref):
                    _close(got, want)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 8, 12, 24])
    def test_coupling_block(self, order):
        rng = np.random.default_rng(order)
        mp = _seeded_map(rng, order)
        table = build_faber(mp, 2 * order + 30)
        h = max(0, order - 2)
        for n in {h, h + 1, 8, 30}:
            _close(coupling_block(mp, table, n), _ref_coupling_block(mp, table, n))

    @pytest.mark.parametrize("order,degree", ORDERS_AND_DEGREES)
    def test_solve_c12(self, order, degree):
        rng = np.random.default_rng(2000 + 1000 * order + degree)
        mp = _seeded_map(rng, order)
        n = degree + order
        table = build_faber(mp, required_table_order(mp, n) + 5)
        load = random_loading(rng, degree)
        for length in sorted({1, max(order - 1, 1), n}):
            s = rng.normal(size=length) + 1j * rng.normal(size=length)
            c3, j01, j02 = 0.3, 0.2 - 0.1j, -0.4 + 0.7j
            c1, c2 = solve_c12(s, c3, j01, j02, mp, table, load, FIG_MATERIAL)
            kap = FIG_MATERIAL.kappa
            ref = (
                -0.5 * FIG_MATERIAL.alpha2 * (_ref_c12_lhs(s, mp, table) - c3 * j01 - j02)
                + 0.5 * (kap * load.coefficient_A(0) - np.conj(load.coefficient_B(0)))
                + 1j * kap * c3 * mp.coefficient(0) / (kap + 1.0)
            )
            _close(complex(c1, c2), ref)

    @pytest.mark.parametrize("order,degree", [(1, 1), (3, 20), (12, 120), (24, 200)])
    def test_solutions_match_reference_pipeline(self, order, degree):
        rng = np.random.default_rng(3000 + order)
        mp = _seeded_map(rng, order)
        load = random_loading(rng, degree)
        n = degree + order
        table = build_faber(mp, required_table_order(mp, n))
        sol = solve_full(mp, load, FIG_MATERIAL, n, table=table)
        y1, y2, j01, j02 = _ref_build_y(mp, table, load, FIG_MATERIAL, n)
        u1, u2 = solve_block(mp, table, y1, y2, FIG_MATERIAL, n)
        c3 = solve_c3(u1, u2, mp, load, FIG_MATERIAL)
        s = c3 * u1 + u2
        lhs = _ref_c12_lhs(s, mp, table)
        kap = FIG_MATERIAL.kappa
        c12 = (
            -0.5 * FIG_MATERIAL.alpha2 * (lhs - c3 * j01 - j02)
            + 0.5 * (kap * load.coefficient_A(0) - np.conj(load.coefficient_B(0)))
            + 1j * kap * c3 * mp.coefficient(0) / (kap + 1.0)
        )
        _close(sol.s, s)
        _close(sol.c3, c3)
        _close(complex(sol.c1, sol.c2), c12, rtol=1e-12)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "order12"])
    def test_lazy_gamma_equals_eager_construction(self, name):
        if name == "order12":
            mp = random_univalent_map(np.random.default_rng(12145), 12)
            table = build_faber(mp, 145)
        else:
            mp = FIG_MAPS[name]
            table = build_faber(mp, required_table_order(mp, 48))
        gamma, gamma0 = _ref_gamma(table)
        assert np.array_equal(table.gamma.view(np.uint64), gamma.view(np.uint64))
        assert np.array_equal(table.gamma0.view(np.uint64), gamma0.view(np.uint64))

    def test_gamma_not_built_by_solve(self):
        mp = random_univalent_map(np.random.default_rng(5), 6)
        n = 30
        table = build_faber(mp, required_table_order(mp, n))
        solve_full(mp, random_loading(np.random.default_rng(6), 20), FIG_MATERIAL, n,
                   table=table)
        for name in ("gamma", "gamma0", "_grunsky_wide", "grunsky"):
            assert name not in vars(table), name
        assert table.gamma is table.gamma and table.gamma0 is table.gamma0
        assert table.grunsky is table.grunsky and table._grunsky_wide is table._grunsky_wide


class TestTableForAnotherMap:
    def _maps(self):
        rng = np.random.default_rng(77)
        return random_univalent_map(rng, 3), random_univalent_map(rng, 3)

    def test_solve_full_rejects(self):
        mp, other = self._maps()
        n = 10
        table = build_faber(other, required_table_order(mp, n))
        with pytest.raises(ValueError, match="different map"):
            solve_full(mp, FIG_LOADING, FIG_MATERIAL, n, table=table)

    def test_small_foreign_table_also_rejected(self):
        mp, other = self._maps()
        with pytest.raises(ValueError, match="different map"):
            solve_full(mp, FIG_LOADING, FIG_MATERIAL, 10, table=build_faber(other, 2))

    def test_single_layer_exterior_rejects(self):
        from faberelast import single_layer_exterior

        mp, other = self._maps()
        n = 10
        sol = solve_full(mp, FIG_LOADING, FIG_MATERIAL, n)
        table = build_faber(other, required_table_order(mp, n))
        with pytest.raises(ValueError, match="different map"):
            single_layer_exterior(sol, table, mp, FIG_MATERIAL, 2.0 + 0.5j)

    def test_single_layer_interior_rejects(self):
        from faberelast import single_layer_interior

        mp, other = self._maps()
        n = 10
        sol = solve_full(mp, FIG_LOADING, FIG_MATERIAL, n)
        table = build_faber(other, required_table_order(mp, n))
        with pytest.raises(ValueError, match="different map"):
            single_layer_interior(sol, table, mp, FIG_MATERIAL, 0.1 + 0.1j)

    def test_grunsky_matrix_rejects(self):
        from faberelast import grunsky_matrix

        mp, other = self._maps()
        with pytest.raises(ValueError, match="different map"):
            grunsky_matrix(mp, build_faber(other, 6))

    def test_equal_map_accepted(self):
        mp, _ = self._maps()
        twin = ExteriorMap(mp.coefficients)
        assert twin is not mp
        n = 10
        table = build_faber(twin, required_table_order(mp, n))
        sol = solve_full(mp, FIG_LOADING, FIG_MATERIAL, n, table=table)
        ref = solve_full(mp, FIG_LOADING, FIG_MATERIAL, n)
        assert np.array_equal(sol.s, ref.s) and sol.c3 == ref.c3


def test_degree_zero_loading_needs_table_past_map_order():
    # J1 reaches Ftilde_{M+1}, so a table of order M is one short
    mp = ExteriorMap((0.0, 0.1, 0.05, 0.02))
    load = FarFieldLoading([1.0], [0.5])
    with pytest.raises(TruncationError, match="order 4, have 3"):
        build_y(mp, build_faber(mp, 3), load, FIG_MATERIAL, 3)
    y1, y2, j01, j02 = build_y(mp, build_faber(mp, 4), load, FIG_MATERIAL, 3)
    ref = _ref_build_y(mp, build_faber(mp, 4), load, FIG_MATERIAL, 3)
    for got, want in zip((y1, y2, j01, j02), ref):
        _close(got, want)

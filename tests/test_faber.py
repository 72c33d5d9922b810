import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faberelast
from faberelast import (
    ExteriorMap,
    build_faber,
    derivative_basis,
    eval_G,
    eval_faber,
    eval_ftilde,
    faber_values,
    grunsky_matrix,
    required_table_order,
    solve_full,
)
from faberelast.faber import (
    _canvas,
    _derivative_coefficients,
    _grunsky_wide,
    _point_values,
    _recurrence,
)
from util import (
    FIG_LOADING,
    FIG_MATERIAL,
    HARD_SHAPES,
    ellipse_faber_closed_form,
    random_univalent_map,
)


class TestRecursion:
    def test_first_polynomials_random_maps(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mp = random_univalent_map(rng, int(rng.integers(1, 7)))
            table = build_faber(mp, 2)
            a0 = mp.coefficient(0)
            a1 = mp.coefficient(1)
            np.testing.assert_allclose(
                table.monomial[1, :2], [-a0, 1.0], rtol=0.0, atol=1e-14
            )
            np.testing.assert_allclose(
                table.monomial[2, :3],
                [a0 * a0 - 2.0 * a1, -2.0 * a0, 1.0],
                rtol=0.0,
                atol=1e-14,
            )

    def test_disk_gives_monomials(self):
        table = build_faber(ExteriorMap(()), 8)
        np.testing.assert_allclose(table.monomial, np.eye(9), atol=1e-15)

    def test_ellipse_closed_form(self):
        rng = np.random.default_rng(1)
        a = 0.2 - 0.15j
        table = build_faber(ExteriorMap((0.0, a)), 10)
        z = rng.normal(size=20) + 1j * rng.normal(size=20)
        for m in range(1, 11):
            expected = ellipse_faber_closed_form(m, z, a)
            got = eval_faber(table, m, z)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_monic_lower_triangular(self):
        rng = np.random.default_rng(2)
        table = build_faber(random_univalent_map(rng, 4), 12)
        for m in range(13):
            assert table.monomial[m, m] == 1.0
            assert np.all(table.monomial[m, m + 1 :] == 0.0)

    def test_monomial_table_built_on_demand(self):
        mp = ExteriorMap((0.0, 0.1 + 0.1j, 0.1 + 0.1j))
        n = 12
        table = build_faber(mp, required_table_order(mp, n))
        solve_full(mp, FIG_LOADING, FIG_MATERIAL, n, table=table)
        assert "monomial" not in vars(table)
        assert table.monomial is table.monomial

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            build_faber(ExteriorMap((0.0, 0.1)), 0)


class TestGrunsky:
    def test_disk_vanishes(self):
        table = build_faber(ExteriorMap(()), 6)
        assert np.abs(table.grunsky).max() == 0.0

    def test_ellipse_diagonal(self):
        a = 0.1 + 0.1j
        table = build_faber(ExteriorMap((0.0, a)), 8)
        c = table.grunsky
        for m in range(1, 9):
            for k in range(1, 9):
                expected = a**m if k == m else 0.0
                assert abs(c[m - 1, k - 1] - expected) < 1e-12

    def test_symmetry_random_order3(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mp = random_univalent_map(rng, 3)
            table = build_faber(mp, 16)
            c = grunsky_matrix(mp, table)
            idx = np.arange(1, 17)
            weighted = idx[None, :] * c
            assert np.abs(weighted - weighted.T).max() < 1e-10

    def test_weak_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mp = random_univalent_map(rng, int(rng.integers(1, 6)))
            table = build_faber(mp, 16)
            m = np.arange(1, 17)[:, None]
            assert np.all(np.abs(table.grunsky) <= 2.0 * m * (1.0 + 1e-8))

    def test_strong_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mp = random_univalent_map(rng, int(rng.integers(1, 6)))
            table = build_faber(mp, 24)
            lam = rng.normal(size=5) + 1j * rng.normal(size=5)
            lhs = sum(
                k * abs(np.dot(table.grunsky[:5, k - 1], lam)) ** 2
                for k in range(1, 25)
            )
            rhs = float(np.sum(np.arange(1, 6) * np.abs(lam) ** 2))
            assert lhs <= rhs * (1.0 + 1e-8)

    def test_composition_matches_quadrature(self):
        # cross-check the series composition against a contour integral
        rng = np.random.default_rng(6)
        mp = random_univalent_map(rng, 3)
        table = build_faber(mp, 6)
        q = 512
        theta = 2.0 * np.pi * np.arange(q) / q
        w = 2.0 * np.exp(1j * theta)
        for m in (1, 3, 6):
            fm = eval_faber(table, m, mp.eval(w))
            for k in (1, 2, 5):
                # coefficient of w^{-k}: (1/2pi) int F_m(Psi(w)) w^k dtheta on |w| = 2
                ck = np.mean(fm * w**k)
                assert abs(ck - table.grunsky[m - 1, k - 1]) < 1e-10

    @pytest.mark.parametrize("order", [0, 2, 12])
    def test_row_index_is_checked(self, order):
        rng = np.random.default_rng(order)
        mp = random_univalent_map(rng, order) if order else ExteriorMap(())
        n = 10
        table = build_faber(mp, n)
        for m in (-1, -2, n + 1):
            with pytest.raises(IndexError, match=f"Faber index {m} outside table order {n}"):
                table.grunsky_row(m)
        width = max(mp.order, 1)
        assert table.grunsky_row(0).shape == (0,)
        row = table.grunsky_row(n)
        assert row.shape == (n * width,)
        assert np.array_equal(row, table._grunsky_wide[n, 1 : n * width + 1])


class TestTableArrays:
    NAMES = ("d", "_grunsky_wide", "grunsky", "gamma", "gamma0", "monomial")

    def test_read_only(self):
        mp = HARD_SHAPES["truncated square"]
        table = build_faber(mp, 30)
        for name in self.NAMES:
            array = getattr(table, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(1,) * array.ndim] += 1
        with pytest.raises(ValueError, match="read-only"):
            table.grunsky_row(3)[0] = 0.0

    def test_pickle_goes_through_build_faber(self):
        mp = random_univalent_map(np.random.default_rng(31), 7)
        table = build_faber(mp, 40)
        for name in self.NAMES:
            getattr(table, name)
        table2 = pickle.loads(pickle.dumps(table))
        assert vars(table2).keys() == {"mapping", "d", "order"}
        assert table2.order == 40 and table2.mapping == mp
        assert not table2.d.flags.writeable
        for name in self.NAMES:
            assert getattr(table2, name).tobytes() == getattr(table, name).tobytes(), name

    def test_equality_and_hash_follow_map_and_order(self):
        mp = random_univalent_map(np.random.default_rng(32), 5)
        table = build_faber(mp, 20)
        same = build_faber(ExteriorMap(mp.coefficients), 20)
        assert table == same and hash(table) == hash(same)
        assert len({table, same}) == 1
        assert table != build_faber(mp, 21)
        assert table != build_faber(ExteriorMap((0.0, 0.1)), 20)
        assert pickle.loads(pickle.dumps(table)) == table


class TestDerivativeBasis:
    def test_ellipse_closed_form(self):
        a = 0.2 + 0.1j
        table = build_faber(ExteriorMap((0.0, a)), 10)
        gamma, gamma0 = derivative_basis(table)
        expected = np.zeros_like(gamma)
        expected0 = np.zeros_like(gamma0)
        for m in range(1, 11):
            if m % 2 == 0:
                for j in range(1, m // 2 + 1):
                    expected[m - 1, 2 * j - 2] = m * a ** (m // 2 - j)
            else:
                expected0[m - 1] = m * a ** ((m - 1) // 2)
                for j in range(1, (m - 1) // 2 + 1):
                    expected[m - 1, 2 * j - 1] = m * a ** ((m - 1) // 2 - j)
        np.testing.assert_allclose(gamma, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(gamma0, expected0, rtol=0.0, atol=1e-12)

    def test_disk(self):
        table = build_faber(ExteriorMap(()), 8)
        gamma, gamma0 = derivative_basis(table)
        expected = np.zeros((8, 8), dtype=complex)
        for m in range(2, 9):
            expected[m - 1, m - 2] = m
        np.testing.assert_allclose(gamma, expected, atol=1e-15)
        np.testing.assert_allclose(gamma0, [1.0] + [0.0] * 7, atol=1e-15)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(7)
        mp = random_univalent_map(rng, 2)
        n = 12
        table = build_faber(mp, n)
        z = rng.normal(size=20) + 1j * rng.normal(size=20)
        F, Fp = faber_values(mp, n, z)
        for m in range(1, n + 1):
            recon = table.gamma0[m - 1] * np.ones_like(z)
            for j in range(1, m):
                recon = recon + table.gamma[m - 1, j - 1] * F[j]
            scale = np.abs(Fp[m]).max()
            assert np.abs(recon - Fp[m]).max() < 1e-10 * max(scale, 1.0)


class TestHighDegree:
    def test_derivative_basis_identity_at_boundary(self):
        # F_m' = sum_j gamma_{m,j} F_j + gamma_{m,0}, against the
        # differentiated recurrence at boundary nodes, row by row
        rng = np.random.default_rng(20)
        cases = [(12, 133)] + [
            (int(rng.integers(1, 13)), int(rng.integers(30, 134))) for _ in range(11)
        ]
        for order, n in cases:
            mp = random_univalent_map(rng, order)
            table = build_faber(mp, n)
            zb = mp.boundary_point(2.0 * np.pi * np.arange(256) / 256)
            F, Fp = faber_values(mp, n, zb)
            recon = table.gamma @ F[1:] + table.gamma0[:, None]
            err = np.abs(recon - Fp[1:]).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(Fp[1:]).max(axis=1))

    def test_ellipse_degree_80_on_boundary(self):
        a = 0.5
        table = build_faber(ExteriorMap((0.0, a)), 80)
        zb = table.mapping.boundary_point(2.0 * np.pi * np.arange(64) / 64)
        expected = ellipse_faber_closed_form(80, zb, a)
        np.testing.assert_allclose(eval_faber(table, 80, zb), expected, rtol=1e-12)


class TestDerivativeCoefficients:
    @pytest.mark.parametrize("degree", (0, 1, 2, 30, 200))
    @pytest.mark.parametrize("order", (0, 1, 3, 12, 24))
    def test_series_derivative_matches_recurrence(self, order, degree):
        # sum c_m F_m' summed over F through d, against the derivative
        # recurrence, at points inside, on and outside the boundary
        rng = np.random.default_rng(100 * order + degree)
        mp = ExteriorMap(()) if order == 0 else random_univalent_map(rng, order, margin=0.95)
        table = build_faber(mp, max(degree, 1))
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        e = _derivative_coefficients(c, table.d)
        assert e.shape == (degree,)
        zb = mp.boundary_point(rng.uniform(0.0, 2.0 * np.pi, 40))
        a0 = mp.coefficient(0)
        z_out = mp.eval(rng.uniform(1.0, 2.5, 200) * np.exp(2j * np.pi * rng.uniform(size=200)))
        for z in (a0 + rng.uniform(size=40) * (zb - a0), zb, z_out[np.abs(z_out) <= 3.0][:40]):
            F, Fp = faber_values(mp, degree, z)
            ref = np.einsum("m,m...->...", c, Fp)
            got = np.einsum("j,j...->...", e, F[:degree])
            scale = np.abs(ref).max()
            if scale == 0.0:
                np.testing.assert_array_equal(got, 0.0)
            else:
                assert np.abs(got - ref).max() <= 1e-13 * scale


class TestEvaluation:
    def test_f0_is_one(self):
        table = build_faber(ExteriorMap((0.0, 0.3)), 4)
        for z in (0.0, 2.0 + 1.0j, -5.0j):
            assert eval_faber(table, 0, z) == 1.0

    def test_ellipse_f2_at_origin(self):
        a = 0.2 + 0.05j
        table = build_faber(ExteriorMap((0.0, a)), 4)
        assert abs(eval_faber(table, 2, 0.0) - (-2.0 * a)) < 1e-15

    def test_index_error(self):
        table = build_faber(ExteriorMap((0.0, 0.1)), 4)
        with pytest.raises(IndexError):
            eval_faber(table, 5, 1.0)

    def test_composition_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            mp = random_univalent_map(rng, int(rng.integers(1, 5)))
            table = build_faber(mp, 10)
            r = rng.uniform(1.05, 3.0)
            w = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=16))
            for m in range(1, 11):
                vals = np.abs(eval_faber(table, m, mp.eval(w)))
                bound = r**m + 2.0 * m / (r - 1.0)
                assert np.all(vals <= bound * (1.0 + 1e-12))

    def test_ftilde_nonpositive_index(self):
        table = build_faber(ExteriorMap((0.0, 0.1)), 4)
        assert eval_ftilde(table, -3, 2.0 + 1.0j) == 0.0
        assert eval_ftilde(table, 0, 1.0j) == 0.0

    def test_ftilde_disk(self):
        table = build_faber(ExteriorMap(()), 6)
        z = 1.3 - 0.4j
        assert abs(eval_ftilde(table, 4, z) - z**3) < 1e-14

    def test_ftilde_ellipse(self):
        a0 = 0.2 + 0.1j
        table = build_faber(ExteriorMap((a0, 0.15)), 4)
        z = 0.7 + 0.2j
        assert abs(eval_ftilde(table, 2, z) - (z - a0)) < 1e-14

    def test_G_disk(self):
        assert eval_G(ExteriorMap(()), 3, 2.0 + 0.0j) == 4.0

    def test_G_ellipse(self):
        a = 0.2 - 0.1j
        mp = ExteriorMap((0.0, a))
        w = 1.7 + 0.3j
        assert abs(eval_G(mp, 1, w) - 1.0 / (1.0 - a / w**2)) < 1e-14

    def test_G_approximates_ftilde(self):
        rng = np.random.default_rng(9)
        mp = random_univalent_map(rng, 3)
        table = build_faber(mp, 8)
        for k in (1, 2, 3):
            gaps = []
            for r in (1e2, 1e3):
                w = r * np.exp(0.4j)
                gaps.append(
                    abs(eval_ftilde(table, k, complex(mp.eval(w))) - eval_G(mp, k, w))
                )
            # vanishes at infinity, at least one power of |w| per decade
            assert gaps[1] <= 0.15 * gaps[0] + 1e-13


class TestSeriesIdentities:
    def test_generating_function(self):
        rng = np.random.default_rng(10)
        mp = random_univalent_map(rng, 3)
        n = 48
        table = build_faber(mp, n)
        z = mp.coefficient(0) + 0.2 + 0.1j  # well inside the inclusion
        w = 4.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        series = sum(eval_faber(table, m, z) * w ** (-m) for m in range(n + 1))
        target = w * mp.derivative(w) / (mp.eval(w) - z)
        assert abs(series - target) < 1e-8

    def test_resolvent_expansion(self):
        rng = np.random.default_rng(11)
        mp = random_univalent_map(rng, 2)
        n = 48
        table = build_faber(mp, n)
        z = mp.coefficient(0) - 0.15 + 0.25j
        w = 4.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        series = sum(eval_ftilde(table, m, z) * w ** (-m) for m in range(1, n + 1))
        assert abs(series - 1.0 / (mp.eval(w) - z)) < 1e-8


def _loop_recurrence(a, out, times_z):
    """The per-s recurrence over whole rows, frozen as the reference."""
    M = len(a) - 1
    for m in range(len(out) - 1):
        new = times_z(m)
        for s in range(min(m, M) + 1):
            new -= a[s] * out[m - s]
        if m <= M:
            new -= m * a[m] * out[0]
        out[m + 1] = new
    return out


def _reference_grunsky_wide(mapping, n):
    """The canvas built row by row with full-width convolutions, frozen."""
    a = mapping._coeff_array
    M = mapping.order
    width = n * max(M, 1)
    L = width + n + 1
    psi = np.concatenate(([1.0], a))[::-1]
    comp = np.zeros((n + 1, L), dtype=complex)
    comp[0, width] = 1.0
    _loop_recurrence(a, comp, lambda m: np.convolve(comp[m], psi)[M : M + L])
    wide = np.zeros((n + 1, width + 1), dtype=complex)
    wide[:, 1:] = comp[:, width - 1 :: -1]
    return wide


def _kernel_maps():
    rng = np.random.default_rng(1400)
    maps = {"disk": ExteriorMap(()), "shifted disk": ExteriorMap((0.3,))}
    for order in (1, 2, 3, 12, 24):
        maps[f"order {order}"] = random_univalent_map(rng, order, margin=0.99)
    return {**maps, **HARD_SHAPES}


_KERNEL_MAPS = _kernel_maps()


class TestRecurrenceKernel:
    @pytest.mark.parametrize("name", sorted(_KERNEL_MAPS))
    def test_canvas_matches_row_by_row_reference(self, name):
        mp = _KERNEL_MAPS[name]
        M = mp.order
        orders = {1, 2, max(M - 1, 1), M + 1, 40}
        if M in (3, 12, 24) or name == "truncated square":
            orders.add(200)
        for n in sorted(orders):
            wide = _grunsky_wide(mp, n)
            ref = _reference_grunsky_wide(mp, n)
            assert wide.shape == ref.shape
            tol = 1e-15 * max(1.0, np.abs(ref).max())
            assert np.abs(wide - ref).max() <= tol, (name, n)
            assert np.all(wide[:, 0] == 0.0)
            for m in range(n + 1):
                assert np.all(wide[m, m * M + 1 :] == 0.0), (name, n, m)

    @pytest.mark.parametrize("order", (0, 1, 3, 12, 24))
    def test_points_match_per_s_loop(self, order):
        rng = np.random.default_rng(1410 + order)
        mp = ExteriorMap(()) if order == 0 else random_univalent_map(rng, order, margin=0.99)
        a = mp._coeff_array
        n = 60
        z = mp.eval(rng.uniform(1.0, 1.5, (7, 9)) * np.exp(2j * np.pi * rng.uniform(size=(7, 9))))
        z[0, :4] = mp.coefficient(0) + 0.1 * rng.normal(size=4)  # inside the curve
        ref = np.zeros((n + 1,) + z.shape, dtype=complex)
        ref[0] = 1.0
        _loop_recurrence(a, ref, lambda m: z * ref[m])
        ref_p = np.zeros_like(ref)
        _loop_recurrence(a, ref_p, lambda m: z * ref_p[m] + ref[m])
        F, Fp = faber_values(mp, n, z)
        assert F.shape == Fp.shape == (n + 1, 7, 9)
        for got, want in ((_point_values(a, n, z), ref), (F, ref), (Fp, ref_p)):
            scale = np.abs(want).reshape(n + 1, -1).max(axis=1)
            err = np.abs(got - want).reshape(n + 1, -1).max(axis=1)
            assert np.all(err <= 1e-14 * np.maximum(scale, 1e-300))

    def test_monomial_matches_per_s_loop(self):
        mp = random_univalent_map(np.random.default_rng(1420), 12, margin=0.99)
        n = 40
        ref = np.zeros((n + 1, n + 1), dtype=complex)
        ref[0, 0] = 1.0
        _loop_recurrence(mp._coeff_array, ref, lambda m: np.concatenate(([0.0], ref[m, :-1])))
        got = build_faber(mp, n).monomial
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref).max(axis=1, keepdims=True))

    def test_rows_that_reshape_to_a_copy_raise(self):
        a = ExteriorMap((0.0, 0.2, 0.1))._coeff_array
        z = np.linspace(-1.0, 1.0, 15).reshape(3, 5) + 0.5j
        out = np.zeros((5, 5, 3), dtype=complex).transpose(0, 2, 1)  # rows are (3, 5)
        out[0] = 1.0
        with pytest.raises(ValueError, match="without a copy"):
            _recurrence(a, out, lambda m: (slice(None), z * out[m]))

    def test_empty_points(self):
        F, Fp = faber_values(ExteriorMap((0.0, 0.2)), 5, np.zeros((0, 3), dtype=complex))
        assert F.shape == Fp.shape == (6, 0, 3)


#: (M, N): seed of the map of order M at margin 0.99 whose table of order N is cut
_CUT_CASES = {(12, 145): 12145, (24, 425): 24425}


def _cut_columns_are_bitwise_whole(M, N):
    """The checks of ``TestCutCanvas``, on this process's BLAS threads."""
    mp = random_univalent_map(np.random.default_rng(_CUT_CASES[M, N]), M, margin=0.99)
    whole = _grunsky_wide(mp, N)
    assert whole.shape == (N + 1, N * M + 1)

    def same_bits(got, cols):
        return np.array_equal(got.view(np.uint64), whole[:, :cols].view(np.uint64))

    # at cap + N >= N * M the canvas is ``whole`` itself
    for cap in (N, 2 * N):
        assert same_bits(_canvas(mp._coeff_array, N, cap + N + 1)[:, : cap + 1], cap + 1)
        kept = _grunsky_wide(mp, N, cap)
        assert kept.shape[1] > N and same_bits(kept, kept.shape[1]), cap
    table = build_faber(mp, N)
    width = table._grunsky_wide.shape[1]
    assert N < width < N * M // 4  # the table's canvas is cut
    assert same_bits(table._grunsky_wide, width)
    assert np.array_equal(table.grunsky.view(np.uint64),
                          whole[1:, 1 : N + 1].copy().view(np.uint64))
    for m in (1, N // 2, N):
        row = table.grunsky_row(m)
        assert np.array_equal(row.view(np.uint64), whole[m, 1 : m * M + 1].view(np.uint64))


class TestCutCanvas:
    """A canvas built to k = cap + N + 1 holds columns 0 .. cap of the whole rows bit for bit.

    The whole rows are ``_grunsky_wide`` without a cap, which
    ``TestRecurrenceKernel`` checks against the frozen row-by-row
    reference (to 1e-15: the two sum in different orders).  Bit for bit
    holds when BLAS runs on one thread, so the checks run in a child
    process with ``OPENBLAS_NUM_THREADS=1``.
    """

    @pytest.mark.parametrize("M,N", sorted(_CUT_CASES))
    def test_cut_columns_are_bitwise_whole(self, M, N):
        path = [str(Path(faberelast.__file__).parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")])}
        code = f"import test_faber; test_faber._cut_columns_are_bitwise_whole({M}, {N})"
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr

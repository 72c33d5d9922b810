import pickle
from fractions import Fraction

import numpy as np
import pytest

from faberelast import (
    ConvexityError,
    ExteriorMap,
    FaberElastError,
    FarFieldLoading,
    Material,
    SampleShapeError,
    TruncationError,
    build_faber,
    eval_faber,
    eval_u0,
    faber_coefficients,
    faber_coefficients_from_samples,
    faber_values,
)
from util import (
    FIG_MATERIAL,
    ellipse_faber_closed_form,
    random_loading,
    random_univalent_map,
)


class TestMaterial:
    def test_from_lame_basic(self):
        mat = Material.from_lame(0.0, 1.0)
        assert abs(mat.alpha1 - 0.75) < 1e-15
        assert abs(mat.alpha2 - 0.25) < 1e-15
        assert abs(mat.kappa - 3.0) < 1e-15
        assert not mat.synthetic

    def test_incompressible_limit(self):
        mat = Material.from_lame(1e6, 1.0)
        assert abs(mat.kappa - 1.0) < 3e-6

    def test_identity_alpha1_kappa_alpha2(self):
        # near lam = -mu, alpha2 = (1/mu - 1/(2 mu + lam))/2 cancels (1.1e-4
        # off at the last lam there); alpha1/kappa does not
        eps = np.finfo(float).eps
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(100):
            mu = rng.uniform(0.1, 10.0)
            pairs.append((rng.uniform(-0.9 * mu, 10.0), mu))
        near = [(-f * mu, mu) for mu in (1.0, 0.3, 7.0) for f in (0.999, 1 - 1e-9, 1 - 1e-12)]
        for lam, mu in pairs + near:
            mat = Material.from_lame(lam, mu)
            assert abs(mat.alpha1 - mat.kappa * mat.alpha2) <= 4 * eps * mat.alpha1, (lam, mu)
        for lam, mu in near:
            # (lam + mu)/(2 mu (2 mu + lam)) in exact rationals of the given floats
            L, M = Fraction(lam), Fraction(mu)
            exact = (L + M) / (2 * M * (2 * M + L))
            ulp = Fraction(float(np.spacing(float(exact))))
            assert abs(Fraction(Material.from_lame(lam, mu).alpha2) - exact) <= 2 * ulp, (lam, mu)

    def test_inconsistent_constants_raise(self):
        with pytest.raises(ValueError, match="kappa \\* alpha2"):
            Material(alpha1=1.0, alpha2=1.0, kappa=3.0)
        with pytest.raises(ValueError):
            Material(alpha1=float("nan"), alpha2=1.0, kappa=1.0)
        for mat in (Material.from_lame(1.0, 1.0), Material.from_figure_params(0.5, 0.3),
                    FIG_MATERIAL):
            assert pickle.loads(pickle.dumps(mat)) == mat
            assert Material(mat.alpha1, mat.alpha2, mat.kappa, mat.lam, mat.mu) == mat

    def test_physical_kappa_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = rng.uniform(0.1, 10.0)
            lam = rng.uniform(1e-6, 10.0)  # positive bulk constant
            mat = Material.from_lame(lam, mu)
            assert 1.0 < mat.kappa < 3.0

    def test_convexity_errors(self):
        with pytest.raises(ConvexityError):
            Material.from_lame(0.0, 0.0)
        with pytest.raises(ConvexityError):
            Material.from_lame(-2.0, 1.0)

    def test_figure_params(self):
        mat = Material.from_figure_params(0.5, 0.3)
        assert abs(mat.alpha2 - 5.0 / 3.0) < 1e-15
        assert mat.synthetic

    def test_figure_params_identity(self):
        mat = Material.from_figure_params(0.7, 0.7)
        assert abs(mat.alpha2 - 1.0) < 1e-15

    def test_round_trip_with_lame(self):
        ref = Material.from_lame(0.0, 1.0)
        mat = Material.from_figure_params(ref.alpha1, ref.kappa)
        assert abs(mat.alpha2 - 0.25) < 1e-15

    def test_figure_params_validation(self):
        with pytest.raises(ValueError):
            Material.from_figure_params(-1.0, 0.3)
        with pytest.raises(ValueError):
            Material.from_figure_params(0.5, 0.0)
        # kappa + 1 divides the rotation channel of the solve
        with pytest.raises(ValueError):
            Material.from_figure_params(0.5, -1.0)


class TestLoadingVector:
    def test_padding(self):
        load = FarFieldLoading([1.0], [0.0, 2.0, 3.0])
        assert len(load.A) == len(load.B) == 3
        assert load.degree == 2

    def test_addition_and_scaling(self):
        l1 = FarFieldLoading([0.0, 1.0], [0.0])
        l2 = FarFieldLoading([0.0], [0.0, 0.0, 2.0])
        total = l1 + l2.scaled(0.5)
        assert total.coefficient_A(1) == 1.0
        assert total.coefficient_B(2) == 1.0

    def test_addition_pads_and_copies(self):
        l1 = FarFieldLoading([1.0, 2.0j], [0.5])
        l2 = FarFieldLoading([0.0, 1.0, 0.0, 3.0], [1.0, 0.0, 0.0, -1.0j])
        operands = (l1.A, l1.B, l2.A, l2.B)
        before = [a.copy() for a in operands]
        for total in (l1 + l2, l2 + l1):
            assert np.array_equal(total.A, [1.0, 1.0 + 2.0j, 0.0, 3.0])
            assert np.array_equal(total.B, [1.5, 0.0, 0.0, -1.0j])
            assert total.degree == 3
            for a in (total.A, total.B):
                assert not a.flags.writeable
                assert not any(np.shares_memory(a, b) for b in operands)
        assert all(np.array_equal(a, b) for a, b in zip(operands, before))
        assert (len(l1.A), l1.degree, l2.degree) == (2, 1, 3)
        # the degree of a sum is its own, not the larger of the operands'
        cancel = FarFieldLoading([0.0, 1.0, 1.0], [0.0]) + FarFieldLoading([0.0, 0.0, -1.0], [0.0])
        assert len(cancel.A) == 3 and cancel.degree == 1


class TestEvalU0:
    def test_zero_loading(self):
        mp = ExteriorMap((0.0, 0.2))
        table = build_faber(mp, 6)
        load = FarFieldLoading([0.0], [0.0])
        z = np.array([0.1, 1.0 + 1.0j, -2.0j])
        np.testing.assert_allclose(
            eval_u0(load, table, FIG_MATERIAL, z), 0.0, atol=1e-15
        )

    def test_disk_linear(self):
        mp = ExteriorMap(())
        table = build_faber(mp, 4)
        load = FarFieldLoading([0.0, 1.0], [0.0])
        kappa = FIG_MATERIAL.kappa
        for x in (0.25, -1.3, 2.0):
            got = eval_u0(load, table, FIG_MATERIAL, complex(x))
            assert abs(got - 0.5 * (kappa - 1.0) * x) < 1e-14

    def test_constant_loading_is_constant(self):
        mp = ExteriorMap((0.1, 0.2 + 0.1j))
        table = build_faber(mp, 6)
        load = FarFieldLoading([1.0 - 2.0j], [0.5j])
        z = np.array([0.0, 1.0 + 1.0j, -3.0, 2.0j])
        vals = eval_u0(load, table, FIG_MATERIAL, z)
        assert np.abs(vals - vals[0]).max() < 1e-14

    def test_ellipse_against_closed_form(self):
        a = 0.1 + 0.1j
        mp = ExteriorMap((0.0, a))
        table = build_faber(mp, 8)
        load = FarFieldLoading([0.0, 1.0], [0.0, 1.0])
        kappa = FIG_MATERIAL.kappa
        theta = 2.0 * np.pi * np.arange(10) / 10.0
        zb = mp.boundary_point(theta)
        # independent evaluation via the known ellipse Faber polynomials
        h = 1e-7
        f1 = ellipse_faber_closed_form(1, zb, a)
        df1 = (
            ellipse_faber_closed_form(1, zb + h, a)
            - ellipse_faber_closed_form(1, zb - h, a)
        ) / (2.0 * h)
        expected = 0.5 * (kappa * f1 - zb * np.conj(df1) - np.conj(f1))
        got = eval_u0(load, table, FIG_MATERIAL, zb)
        np.testing.assert_allclose(got, expected, atol=1e-7)
        # and exactly, using the algebraic derivative F_1' = 1
        expected_exact = 0.5 * (kappa * f1 - zb - np.conj(f1))
        np.testing.assert_allclose(got, expected_exact, atol=1e-12)

    def test_satisfies_lame_equation(self):
        # discrete check of mu Lap u + (lam + mu) grad div u = 0
        lam, mu = 1.3, 0.8
        mat = Material.from_lame(lam, mu)
        mp = ExteriorMap((0.1, 0.15 - 0.1j, 0.05j))
        table = build_faber(mp, 10)
        rng = np.random.default_rng(2)
        load = FarFieldLoading(
            rng.normal(size=4) + 1j * rng.normal(size=4),
            rng.normal(size=4) + 1j * rng.normal(size=4),
        )
        h = 1e-3

        def u(z):
            return eval_u0(load, table, mat, z)

        def div(z):
            ux = (u(z + h) - u(z - h)) / (2.0 * h)
            uy = (u(z + 1j * h) - u(z - 1j * h)) / (2.0 * h)
            return ux.real + uy.imag

        for z in (0.3 + 0.2j, -0.5j, 1.5 + 1.0j):
            lap = (
                u(z + h) + u(z - h) + u(z + 1j * h) + u(z - 1j * h) - 4.0 * u(z)
            ) / h**2
            grad_div_x = (div(z + h) - div(z - h)) / (2.0 * h)
            grad_div_y = (div(z + 1j * h) - div(z - 1j * h)) / (2.0 * h)
            residual = mu * lap + (lam + mu) * (grad_div_x + 1j * grad_div_y)
            assert abs(residual) < 1e-4


def _frozen_eval_u0(loading, table, mat, z):
    """eval_u0 as it was when it took F' from the derivative recurrence."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    za = np.atleast_1d(z)
    p = loading.degree
    F, Fp = faber_values(table.mapping, p, za)
    A = loading.A[: p + 1]
    B = loading.B[: p + 1]
    total = mat.kappa * np.einsum("m,m...->...", A, F)
    total -= za * np.conj(np.einsum("m,m...->...", A, Fp))
    total -= np.conj(np.einsum("m,m...->...", B, F))
    out = 0.5 * total
    return complex(out[0]) if scalar else out.reshape(z.shape)


class TestEvalU0AgainstFrozen:
    """F' through d against the recurrence, pointwise to 1e-12 relative."""

    @staticmethod
    def _assert_close(mp, degree, seed, z):
        table = build_faber(mp, max(degree, 1) + mp.order + 1)
        load = random_loading(np.random.default_rng(seed), degree)
        got = eval_u0(load, table, FIG_MATERIAL, z)
        ref = _frozen_eval_u0(load, table, FIG_MATERIAL, z)
        assert np.shape(got) == np.shape(ref)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_high_degree_grid(self):
        x = np.linspace(-3.0, 3.0, 81)
        mp = random_univalent_map(np.random.default_rng(12), 12)
        self._assert_close(mp, 120, 120, x[None, :] + 1j * x[:, None])

    @pytest.mark.parametrize("order", (0, 1, 3, 12))
    @pytest.mark.parametrize("degree", (0, 1, 2, 40))
    def test_random_maps(self, order, degree):
        rng = np.random.default_rng(10 * order + degree)
        mp = ExteriorMap(()) if order == 0 else random_univalent_map(rng, order, margin=0.9)
        z = 3.0 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
        self._assert_close(mp, degree, degree, z)
        self._assert_close(mp, degree, degree, complex(z[0]))


class TestFaberCoefficients:
    def test_recovers_basis(self):
        rng = np.random.default_rng(3)
        mp = ExteriorMap((0.1, 0.2, 0.1j))
        table = build_faber(mp, 8)
        q = 512
        theta = 2.0 * np.pi * np.arange(q) / q
        w = 2.0 * np.exp(1j * theta)
        zc = mp.eval(w)
        for j in (0, 1, 4, 7):
            samples = eval_faber(table, j, zc)
            for m in range(8):
                d = faber_coefficients_from_samples(samples, m, 2.0)
                assert abs(d - (1.0 if m == j else 0.0)) < 1e-10

    def test_constant(self):
        mp = ExteriorMap((0.0, 0.3))
        c = 2.0 - 1.0j
        samples = np.full(256, c)
        assert abs(faber_coefficients_from_samples(samples, 0, 1.5) - c) < 1e-12
        assert abs(faber_coefficients_from_samples(samples, 3, 1.5)) < 1e-12

    def test_identity_function_on_ellipse(self):
        a0 = 0.4 - 0.2j
        mp = ExteriorMap((a0, 0.25))
        coeffs = faber_coefficients(lambda z: z, mp, 5)
        assert abs(coeffs[0] - a0) < 1e-12
        assert abs(coeffs[1] - 1.0) < 1e-12
        assert np.abs(coeffs[2:]).max() < 1e-12

    def test_rejects_radius_inside(self):
        with pytest.raises(ValueError):
            faber_coefficients_from_samples(np.ones(64), 0, 0.9)

    def test_fft_matches_per_mode_sums(self):
        # one FFT gives every trapezoid sum, up to the last mode q nodes resolve
        mp = ExteriorMap((0.1, 0.2, 0.1j))
        q, r = 64, 1.3

        def v(z):
            return z**3 - 2.0 * z + 1.0 / (z - 5.0)

        coeffs = faber_coefficients(v, mp, q - 1, r=r, q=q)
        assert len(coeffs) == q
        theta = 2.0 * np.pi * np.arange(q) / q
        samples = v(mp.eval(r * np.exp(1j * theta)))
        for m, got in enumerate(coeffs):
            # the trapezoid sum of mode m on its own, the reference of both public paths
            ref = np.mean(samples * (r * np.exp(1j * theta)) ** (-m))
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
            assert faber_coefficients_from_samples(samples, m, r) == got

    def test_count_at_or_past_q_raises(self):
        # mode q is bin 0 again: at count >= q the FFT would return aliases
        mp = ExteriorMap((0.1, 0.2, 0.1j))
        calls = []
        for count in (64, 80):
            with pytest.raises(TruncationError, match=f"count {count} .* q = 64"):
                faber_coefficients(calls.append, mp, count, r=1.3, q=64)
        assert calls == []  # raised before v is sampled
        samples = np.ones(64, dtype=complex)
        with pytest.raises(TruncationError, match="count 64 .* q = 64"):
            faber_coefficients_from_samples(samples, 64, 1.3)
        assert abs(faber_coefficients_from_samples(samples, 63, 1.3)) < 1e-15

    @pytest.mark.parametrize("v", [lambda z: 1.0, lambda z: np.stack([z, z], axis=1),
                                   lambda z: z[:-1]], ids=["scalar", "two columns", "one short"])
    def test_rejects_samples_of_another_shape(self, v):
        with pytest.raises(SampleShapeError, match=r"not \(512,\)") as info:
            faber_coefficients(v, ExteriorMap((0.0, 0.3)), 3)
        assert isinstance(info.value, ValueError) and isinstance(info.value, FaberElastError)
        assert f"shape {np.shape(v(np.zeros(512)))}" in str(info.value)

    def test_fft_rejects_radius_inside(self):
        with pytest.raises(ValueError):
            faber_coefficients(lambda z: z, ExteriorMap((0.0, 0.3)), 3, r=1.0)

import numpy as np
import pytest

from faberelast import (
    DomainError,
    ExteriorMap,
    FarFieldLoading,
    FieldGrid,
    FieldSample,
    GridSpec,
    QuadratureRule,
    build_faber,
    density_on_boundary,
    displacement,
    eval_u0,
    field_grid,
    kelvin_single_layer,
    required_table_order,
    single_layer_exterior,
    single_layer_interior,
    solve_full,
    transmission_residual,
    write_field_csv,
)
from faberelast.faber import faber_values
from faberelast.fields import (
    _BLOCK_VALUES,
    _HORNER_TERMS,
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    _blocked_horner,
    _exterior_u0,
)
from faberelast.solver import DensitySolution
from util import FIG_MATERIAL, random_loading, random_univalent_map, solved_figure


def _mode_solution(n, s=None, t=None):
    sv = np.zeros(n, dtype=complex)
    tv = np.zeros(n, dtype=complex)
    if s:
        for m, val in s.items():
            sv[m - 1] = val
    if t:
        for m, val in t.items():
            tv[m - 1] = val
    return DensitySolution(s=sv, t=tv, c1=0.0, c2=0.0, c3=0.0, order=n)


class TestInterior:
    def test_zero_solution(self):
        mp = ExteriorMap((0.0, 0.2))
        table = build_faber(mp, 8)
        sol = _mode_solution(4)
        z = np.array([0.0, 0.3 + 0.1j])
        np.testing.assert_allclose(
            single_layer_interior(sol, table, mp, FIG_MATERIAL, z), 0.0, atol=0.0
        )

    def test_disk_single_mode_closed_form(self):
        # on the disk with t_1 = 1 every sum collapses: 2S = (alpha2 - alpha1) z
        mp = ExteriorMap(())
        table = build_faber(mp, 8)
        sol = _mode_solution(4, t={1: 1.0})
        for z in (0.0, 0.4 + 0.2j, -0.5j):
            got = single_layer_interior(sol, table, mp, FIG_MATERIAL, z)
            expected = 0.5 * (FIG_MATERIAL.alpha2 - FIG_MATERIAL.alpha1) * z
            assert abs(got - expected) < 1e-15

    def test_disk_single_mode_against_quadrature(self):
        mp = ExteriorMap(())
        table = build_faber(mp, 8)
        sol = _mode_solution(4, t={1: 1.0})
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mp, rule.theta)
        for z in np.array([0.0, 0.3, 0.5j, -0.2 - 0.4j, 0.6, 0.1 + 0.1j,
                           -0.55, 0.44j, -0.3j, 0.25 - 0.25j]):
            got = single_layer_interior(sol, table, mp, FIG_MATERIAL, complex(z))
            ref = kelvin_single_layer(phi, mp, FIG_MATERIAL, complex(z), rule)
            assert abs(got - ref) < 1e-8

    def test_fig1_centroid_against_quadrature(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mapping, rule.theta)
        z = complex(mapping.boundary_point(np.linspace(0, 2 * np.pi, 64)).mean())
        got = single_layer_interior(sol, table, mapping, mat, z)
        assert abs(got - kelvin_single_layer(phi, mapping, mat, z, rule)) < 1e-6


    @pytest.mark.parametrize("name", ("fig1", "fig3"))
    def test_table_too_small(self, name):
        # the series reads d_0 .. d_{n+M-1}; a table one short must raise
        mapping, mat, _, table, sol = solved_figure(name, 12)
        small = build_faber(mapping, sol.order + mapping.order - 1)
        with pytest.raises(ValueError, match="Faber table too small"):
            single_layer_interior(sol, small, mapping, mat, 0.1j)
        exact = build_faber(mapping, sol.order + mapping.order)
        assert single_layer_interior(sol, exact, mapping, mat, 0.1j) == pytest.approx(
            single_layer_interior(sol, table, mapping, mat, 0.1j), abs=1e-15
        )


class TestExterior:
    def test_zero_solution(self):
        mp = ExteriorMap((0.0, 0.2))
        table = build_faber(mp, 8)
        sol = _mode_solution(4)
        w = np.array([1.5, 2.0j])
        np.testing.assert_allclose(
            single_layer_exterior(sol, table, mp, FIG_MATERIAL, w), 0.0, atol=0.0
        )

    def test_domain_error(self):
        mp = ExteriorMap((0.0, 0.2))
        table = build_faber(mp, 8)
        sol = _mode_solution(4, t={1: 1.0})
        for w in (0.99, complex(np.nan, 0.0), np.array([2.0, np.nan])):
            with pytest.raises(DomainError):
                single_layer_exterior(sol, table, mp, FIG_MATERIAL, w)

    def test_disk_single_mode_closed_form(self):
        # 2S_ext = (alpha2 - alpha1) conj(1/w) for t_1 = 1 on the disk
        mp = ExteriorMap(())
        table = build_faber(mp, 8)
        sol = _mode_solution(4, t={1: 1.0})
        for w in (1.5, 2.0 + 1.0j, -3.0j):
            got = single_layer_exterior(sol, table, mp, FIG_MATERIAL, w)
            expected = 0.5 * (FIG_MATERIAL.alpha2 - FIG_MATERIAL.alpha1) * np.conj(1.0 / w)
            assert abs(got - expected) < 1e-15

    def test_decay_rate(self):
        mapping, mat, loading, table, sol = solved_figure("fig2", 24)
        v10 = abs(single_layer_exterior(sol, table, mapping, mat, 10.0 * np.exp(0.3j)))
        v100 = abs(single_layer_exterior(sol, table, mapping, mat, 100.0 * np.exp(0.3j)))
        assert 5.0 < v10 / v100 < 20.0  # one power of |w| per decade

    def test_against_quadrature(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mapping, rule.theta)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.uniform(1.3, 4.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = complex(mapping.eval(w))
            got = single_layer_exterior(sol, table, mapping, mat, w)
            assert abs(got - kelvin_single_layer(phi, mapping, mat, z, rule)) < 1e-6


# -- frozen per-row evaluators ------------------------------------------
# Copies of the series evaluators as they were when they still looped
# over modes at every point.  The current evaluators sum the same terms
# regrouped by power and by Faber index, so they must agree with these
# to roundoff, and give exact zeros where these do.


def _frozen_tilde_minus_G(table, j, u, inv_dpsi):
    if j <= 0:
        return -(u ** (1 - j)) * inv_dpsi
    row = table.grunsky_row(j)
    if len(row) == 0:
        return np.zeros_like(u)
    acc = np.zeros_like(u)
    ks = np.arange(1, len(row) + 1)
    for c in (row * ks)[::-1]:
        acc = acc * u + c
    return -(acc * u * u) * inv_dpsi / j


def _frozen_comp_minus_power(table, m, u):
    row = table.grunsky_row(m)
    if len(row) == 0:
        return np.zeros_like(u)
    acc = np.zeros_like(u)
    for c in row[::-1]:
        acc = acc * u + c
    return acc * u


def _frozen_exterior(sol, table, mapping, mat, w):
    wa = np.atleast_1d(np.asarray(w, dtype=complex))
    M = mapping.order
    u = 1.0 / wa
    psi = mapping.eval(wa)
    inv_dpsi = 1.0 / mapping.derivative(wa)
    tilde_cache = {}

    def tg(j):
        if j not in tilde_cache:
            tilde_cache[j] = _frozen_tilde_minus_G(table, j, u, inv_dpsi)
        return tilde_cache[j]

    v1 = np.zeros_like(wa)
    v2 = np.zeros_like(wa)
    v3 = np.zeros_like(wa)
    for m in range(1, sol.order + 1):
        sm = sol.s[m - 1]
        tm = sol.t[m - 1]
        if sm == 0 and tm == 0:
            continue
        um = u**m
        if sm != 0:
            v1 += (sm / m) * (np.conj(_frozen_comp_minus_power(table, m, u)) + um)
            v2 += -sm * (u * um) * inv_dpsi
        if tm != 0:
            v1 += (tm / m) * (_frozen_comp_minus_power(table, m, u) + np.conj(um))
            v2 += tm * tg(m)
        inner_s = 0.0
        inner_t = 0.0
        for k in range(-1, M + 1):
            cak = np.conj(mapping.coefficient(k))
            if cak == 0:
                continue
            if sm != 0:
                inner_s = inner_s + cak * tg(k - m)
            if tm != 0:
                inner_t = inner_t + cak * tg(k + m)
        v3 += sm * inner_s + tm * inner_t
    twoS = -mat.alpha1 * v1 + mat.alpha2 * psi * np.conj(v2) - mat.alpha2 * np.conj(v3)
    return 0.5 * twoS


def _frozen_interior(sol, table, mapping, mat, z):
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    n = sol.order
    M = mapping.order
    F, Fp = faber_values(mapping, n + M, za)

    def ftilde(j):
        return 0.0 if j <= 0 else Fp[j] / j

    a1 = mat.alpha1
    a2 = mat.alpha2
    twoS = np.zeros_like(za)
    for m in range(1, n + 1):
        sm = sol.s[m - 1]
        tm = sol.t[m - 1]
        if sm == 0 and tm == 0:
            continue
        if tm != 0:
            twoS += -a1 * (tm / m) * F[m]
            twoS += a2 * za * np.conj(tm * ftilde(m))
        if sm != 0:
            twoS += -a1 * (sm / m) * np.conj(F[m])
        inner_s = 0.0
        inner_t = 0.0
        for k in range(-1, M + 1):
            ak = mapping.coefficient(k)
            if ak == 0:
                continue
            if sm != 0 and k > m:
                inner_s = inner_s + ak * np.conj(ftilde(k - m))
            if tm != 0:
                inner_t = inner_t + ak * np.conj(ftilde(k + m))
        twoS += -a2 * (np.conj(sm) * inner_s + np.conj(tm) * inner_t)
    return 0.5 * twoS


#: agreement with the frozen evaluators, relative to max |reference|
FROZEN_REL_TOL = 1e-12


def _assert_matches_frozen(got, ref):
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    ref = np.atleast_1d(np.asarray(ref, dtype=complex))
    assert got.shape == ref.shape
    scale = np.abs(ref).max()
    if scale == 0.0:
        np.testing.assert_array_equal(got, 0.0)
    else:
        assert np.abs(got - ref).max() <= FROZEN_REL_TOL * scale


def _exterior_points(rng, count):
    radius = 1.0 + rng.exponential(1.0, count)
    return radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def _map_of_order(order):
    if order == 0:
        return ExteriorMap(())
    return random_univalent_map(np.random.default_rng(700 + order), order)


#: solutions given by their nonzero modes: {m: s_m}, {m: t_m}
_MODE_PATTERNS = {
    "s_only": ({1: 0.3 - 0.2j, 5: 1.1, 17: -0.4j}, {}),
    "t_only": ({}, {2: 0.7j, 9: -0.25 + 0.5j, 30: 0.05}),
    "gapped": ({1: 1.0, 4: 0.2j, 7: -0.6}, {3: 0.4 - 0.1j, 7: 0.9j, 11: -0.3}),
    "zero": ({}, {}),
}


class TestAgainstFrozenPerRowEvaluators:
    @pytest.mark.parametrize("order", range(13))
    def test_exterior_solved_random_maps(self, order):
        mp = _map_of_order(order)
        degree = (1, 40, 20, 5)[order % 4] if order < 12 else 60
        n = degree + max(order, 1)
        table = build_faber(mp, required_table_order(mp, n))
        loading = random_loading(np.random.default_rng(800 + order), degree)
        sol = solve_full(mp, loading, FIG_MATERIAL, n, table=table)
        rng = np.random.default_rng(900 + order)
        for count in (1, 266, 5000):
            w = _exterior_points(rng, count)
            got = single_layer_exterior(sol, table, mp, FIG_MATERIAL, w)
            ref = _frozen_exterior(sol, table, mp, FIG_MATERIAL, w)
            _assert_matches_frozen(got, ref)
        scalar = single_layer_exterior(sol, table, mp, FIG_MATERIAL, complex(w[0]))
        assert isinstance(scalar, complex)
        assert abs(scalar - ref[0]) <= FROZEN_REL_TOL * np.abs(ref).max()

    @pytest.mark.parametrize("pattern", sorted(_MODE_PATTERNS))
    @pytest.mark.parametrize("order", (0, 3, 12))
    def test_exterior_mode_patterns(self, pattern, order):
        mp = _map_of_order(order)
        sol = _mode_solution(32, *_MODE_PATTERNS[pattern])
        table = build_faber(mp, 32 + order)
        rng = np.random.default_rng(order)
        # 20000 points pass numpy's size threshold for reusing temporaries
        for count in (1, 266, 5000, 20000):
            w = _exterior_points(rng, count)
            got = single_layer_exterior(sol, table, mp, FIG_MATERIAL, w)
            ref = _frozen_exterior(sol, table, mp, FIG_MATERIAL, w)
            _assert_matches_frozen(got, ref)

    @pytest.mark.parametrize("pattern", sorted(_MODE_PATTERNS))
    @pytest.mark.parametrize("order", (0, 3, 12))
    def test_interior_mode_patterns(self, pattern, order):
        mp = _map_of_order(order)
        sol = _mode_solution(32, *_MODE_PATTERNS[pattern])
        table = build_faber(mp, 32 + order)
        rng = np.random.default_rng(order)
        for count in (1, 266, 5000):
            z = 0.9 * _exterior_points(rng, count) / 2.0
            got = single_layer_interior(sol, table, mp, FIG_MATERIAL, z)
            ref = _frozen_interior(sol, table, mp, FIG_MATERIAL, z)
            _assert_matches_frozen(got, ref)

    @pytest.mark.parametrize("order", (1, 5, 12))
    def test_interior_solved_random_maps(self, order):
        mp = _map_of_order(order)
        n = 60 + order
        table = build_faber(mp, required_table_order(mp, n))
        loading = random_loading(np.random.default_rng(order), 60)
        sol = solve_full(mp, loading, FIG_MATERIAL, n, table=table)
        z = mp.boundary_point(np.linspace(0.0, 2.0 * np.pi, 266, endpoint=False))
        got = single_layer_interior(sol, table, mp, FIG_MATERIAL, z)
        ref = _frozen_interior(sol, table, mp, FIG_MATERIAL, z)
        _assert_matches_frozen(got, ref)


def _solved(mp, degree, seed):
    n = degree + max(mp.order, 1)
    table = build_faber(mp, required_table_order(mp, n))
    loading = random_loading(np.random.default_rng(seed), degree)
    return table, solve_full(mp, loading, FIG_MATERIAL, n, table=table)


#: shapes outside the sampler's sum k|a_k| <= margin < 1 condition
_HARD_SHAPES = {
    "ellipse a1=0.99": ExteriorMap((0.0, 0.99)),
    "ellipse a1=0.999": ExteriorMap((0.0, 0.999)),
    "hypocycloid a2=0.49": ExteriorMap((0.0, 0.0, 0.49)),
    "truncated square": ExteriorMap(
        (0.0, 0.0, 0.0, -1 / 6, 0.0, 0.0, 0.0, 1 / 56, 0.0, 0.0, 0.0, -1 / 176)
    ),
}


def _plain_horner(coef, x):
    acc = np.zeros((coef.shape[0], len(x)), dtype=complex)
    for c in coef.T[::-1]:
        acc = acc * x + c[:, None]
    return acc


def _horner_scale(coef, x):
    """sum_k |c_k| |x|**k per row and point, the scale of Horner's roundoff."""
    return np.abs(coef) @ (np.abs(x)[None, :] ** np.arange(coef.shape[1])[:, None])


#: blocked against plain Horner, relative to _horner_scale; both carry
#: roundoff of a few ulps of that scale
KERNEL_TOL = 1e-14


class TestBlockedHorner:
    # Blocks hold one term up to K = _HORNER_TERMS = 32; above it
    # B = ceil(sqrt(K)) is 6 for K = 33, 8 for K = 63 and 64 and 9 for
    # K = 65.  Rows in u = 1/w take |x| = 1 and x -> 0 (|w| = 1e6); rows in
    # w take |x| > 1, where K stays small enough for x**K to stay finite.
    @pytest.mark.parametrize("K, radius", [
        (K, radius) for K in (1, 32, 33, 63, 64, 65, 1718) for radius in (1.0, 1e-6)
    ] + [(K, radius) for K in (1, 32, 33, 63, 64, 65, 121) for radius in (1.5, 10.0)])
    def test_matches_plain_horner(self, K, radius):
        rng = np.random.default_rng(K)
        coef = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))
        x = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 9))
        got = _blocked_horner(coef, x)
        assert got.shape == (3, 9)
        err = np.abs(got - _plain_horner(coef, x))
        assert (err <= KERNEL_TOL * _horner_scale(coef, x)).all()

    def test_point_counts_around_the_chunk(self):
        R, K = 7, 1718
        B = 42  # ceil(sqrt(1718))
        chunk = _BLOCK_VALUES // (-(-K // B) * R)
        rng = np.random.default_rng(1)
        coef = rng.normal(size=(R, K)) + 1j * rng.normal(size=(R, K))
        x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, chunk + 1))
        ref = _plain_horner(coef, x)
        scale = _horner_scale(coef, x)
        assert _blocked_horner(coef, x[:0]).shape == (R, 0)
        for count in (1, chunk - 1, chunk, chunk + 1):
            got = _blocked_horner(coef, x[:count])
            assert got.shape == (R, count)
            err = np.abs(got - ref[:, :count])
            assert (err <= KERNEL_TOL * scale[:, :count]).all(), count

    def test_point_counts_with_one_term_blocks(self):
        R, K = 4, _HORNER_TERMS
        rng = np.random.default_rng(2)
        coef = rng.normal(size=(R, K)) + 1j * rng.normal(size=(R, K))
        x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, _BLOCK_VALUES // R + 1))
        for count in (0, 1, len(x)):
            got = _blocked_horner(coef, x[:count])
            assert got.shape == (R, count)
            err = np.abs(got - _plain_horner(coef, x[:count]))
            assert (err <= KERNEL_TOL * _horner_scale(coef, x[:count])).all(), count


#: maps of the exterior u0 envelope, by name
_U0_MAPS = {
    "M=0": ExteriorMap(()),
    **{f"M={order}": random_univalent_map(np.random.default_rng(order), order, margin=0.99)
       for order in (1, 12, 24)},
    **_HARD_SHAPES,
}


class TestExteriorU0:
    """u0 at exterior points from the Grunsky rows, against eval_u0."""

    @pytest.mark.parametrize("name", sorted(_U0_MAPS))
    def test_matches_eval_u0(self, name):
        mp = _U0_MAPS[name]
        table = build_faber(mp, 201 + max(mp.order, 1))
        zero = _mode_solution(1)
        theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 32)
        for degree in (0, 1, 60, 200):
            for radius in (1.0, 1.0 + 2e-10, 1.5, 10.0, 100.0):
                # 100**200 overflows double: degree 150 at |w| = 100
                p = min(degree, 150) if radius == 100.0 else degree
                loading = random_loading(np.random.default_rng(p), p)
                w = radius * np.exp(1j * theta)
                z = mp.eval(w)
                got = _exterior_u0(loading, table, mp, FIG_MATERIAL, w, z, mp.derivative(w))
                S = single_layer_exterior(zero, table, mp, FIG_MATERIAL, w)
                np.testing.assert_array_equal(S, 0.0)
                _assert_matches_frozen(got, eval_u0(loading, table, FIG_MATERIAL, z))


class TestEnvelope:
    """Seeded draws over map order <= 24, degree <= 200, margin <= 0.99."""

    def test_continuity_on_the_unit_circle(self):
        rng = np.random.default_rng(2024)
        cases = [(24, 200, 0.99)] + [
            (int(rng.integers(1, 25)), int(rng.integers(1, 201)), rng.uniform(0.5, 0.99))
            for _ in range(7)
        ]
        theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        for i, (order, degree, margin) in enumerate(cases):
            mp = random_univalent_map(np.random.default_rng(i), order, margin=margin)
            table, sol = _solved(mp, degree, 100 + i)
            inner = single_layer_interior(
                sol, table, mp, FIG_MATERIAL, mp.boundary_point(theta)
            )
            outer = single_layer_exterior(sol, table, mp, FIG_MATERIAL, np.exp(1j * theta))
            gap = np.abs(inner - outer).max() / np.abs(inner).max()
            assert gap <= 2e-11, (order, degree, margin, gap)

    def test_frozen_agreement_at_high_degree(self):
        mp = _map_of_order(12)
        table, sol = _solved(mp, 120, 12)
        rng = np.random.default_rng(12)
        w = _exterior_points(rng, 120)
        w[:40] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40))  # |w| = 1
        got = single_layer_exterior(sol, table, mp, FIG_MATERIAL, w)
        ref = _frozen_exterior(sol, table, mp, FIG_MATERIAL, w)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()
        zb = mp.boundary_point(np.angle(w))
        a0 = mp.coefficient(0)
        z = np.concatenate([zb[:40], a0 + rng.uniform(0.0, 1.0, 80) * (zb[40:] - a0)])
        got = single_layer_interior(sol, table, mp, FIG_MATERIAL, z)
        ref = _frozen_interior(sol, table, mp, FIG_MATERIAL, z)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("name", sorted(_HARD_SHAPES))
    def test_hard_shapes_against_quadrature(self, name):
        mp = _HARD_SHAPES[name]
        table, sol = _solved(mp, 30, 5)
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mp, rule.theta)
        w = 2.0 * np.exp(2j * np.pi * np.arange(12) / 12 + 0.1j)
        got = single_layer_exterior(sol, table, mp, FIG_MATERIAL, w)
        ref = kelvin_single_layer(phi, mp, FIG_MATERIAL, mp.eval(w), rule)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ("hypocycloid a2=0.49", "truncated square"))
    def test_hard_shapes_interior_against_quadrature(self, name):
        # the shapes with room for the quadrature's standoff inside
        mp = _HARD_SHAPES[name]
        table, sol = _solved(mp, 30, 5)
        rule = QuadratureRule(2048)
        phi = density_on_boundary(sol, mp, rule.theta)
        z = 0.5 * mp.boundary_point(2.0 * np.pi * np.arange(12) / 12 + 0.1)
        got = single_layer_interior(sol, table, mp, FIG_MATERIAL, z)
        ref = kelvin_single_layer(phi, mp, FIG_MATERIAL, z, rule)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("degree", (30, 120))
    def test_relative_transmission_residual(self, degree):
        shapes = {
            "ellipse a1=0.9": ExteriorMap((0.0, 0.9)),
            "random M=24": random_univalent_map(np.random.default_rng(24), 24, margin=0.99),
            **_HARD_SHAPES,
        }
        for name, mp in shapes.items():
            table, sol = _solved(mp, degree, degree)
            loading = random_loading(np.random.default_rng(degree), degree)
            zb = mp.boundary_point(2.0 * np.pi * np.arange(512) / 512)
            residual = transmission_residual(sol, mp, table, loading, FIG_MATERIAL, 512)
            scale = np.abs(eval_u0(loading, table, FIG_MATERIAL, zb)).max()
            assert residual <= 5e-15 * scale, (name, residual / scale)

    def test_scalar_points_give_complex(self):
        mapping, mat, _, table, sol = solved_figure("fig2")
        outer = single_layer_exterior(sol, table, mapping, mat, 1.5)
        inner = single_layer_interior(sol, table, mapping, mat, 0.1 + 0.2j)
        assert type(outer) is complex and type(inner) is complex
        assert outer == single_layer_exterior(sol, table, mapping, mat, np.array([1.5]))[0]
        assert inner == single_layer_interior(sol, table, mapping, mat, np.array([0.1 + 0.2j]))[0]


class TestBoundaryContinuity:
    def test_figure_configs(self):
        for name in ("fig1", "fig2", "fig3"):
            mapping, mat, _, table, sol = solved_figure(name)
            theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
            zb = mapping.boundary_point(theta)
            inner = single_layer_interior(sol, table, mapping, mat, zb)
            outer = single_layer_exterior(
                sol, table, mapping, mat, (1.0 + 1e-8) * np.exp(1j * theta)
            )
            assert np.abs(inner - outer).max() < 1e-6

    def test_random_configurations(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            mp = random_univalent_map(rng, int(rng.integers(1, 5)))
            loading = random_loading(rng, 2)
            n = 24
            table = build_faber(mp, required_table_order(mp, n))
            sol = solve_full(mp, loading, FIG_MATERIAL, n, table=table)
            theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
            inner = single_layer_interior(
                sol, table, mp, FIG_MATERIAL, mp.boundary_point(theta)
            )
            outer = single_layer_exterior(
                sol, table, mp, FIG_MATERIAL, (1.0 + 1e-8) * np.exp(1j * theta)
            )
            assert np.abs(inner - outer).max() < 1e-6

    def test_truncation_plateau(self):
        # loadings of small degree excite finitely many modes, so the
        # continuity residual saturates at roundoff and may not increase
        mapping = ExteriorMap((0.0, 0.1 + 0.1j, 0.1 + 0.1j))
        loading = FarFieldLoading([0.0, 1.0], [0.0, 1.0])
        residuals = []
        for n in (8, 16, 32, 64):
            table = build_faber(mapping, required_table_order(mapping, n))
            sol = solve_full(mapping, loading, FIG_MATERIAL, n, table=table)
            theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
            inner = single_layer_interior(
                sol, table, mapping, FIG_MATERIAL, mapping.boundary_point(theta)
            )
            outer = single_layer_exterior(
                sol, table, mapping, FIG_MATERIAL, (1.0 + 1e-8) * np.exp(1j * theta)
            )
            residuals.append(float(np.abs(inner - outer).max()))
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi + 1e-12


class TestDisplacement:
    def test_zero_loading(self):
        mp = ExteriorMap((0.0, 0.15))
        table = build_faber(mp, 10)
        load = FarFieldLoading([0.0], [0.0])
        sol = solve_full(mp, load, FIG_MATERIAL, 6, table=table)
        for w in (1.0, 1.5 + 0.5j, 4.0j):
            smp = displacement(sol, table, mp, FIG_MATERIAL, load, w)
            assert abs(smp.u) < 1e-14

    def test_boundary_is_rigid_motion(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            w = np.exp(1j * theta)
            smp = displacement(sol, table, mapping, mat, loading, w)
            assert smp.region == "boundary"
            # the interior series evaluated on the boundary matches the
            # rigid value through the transmission condition
            assert abs(smp.u0 + smp.S - smp.u) < 1e-6

    def test_far_field_decay_along_ray(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        ts = np.linspace(5.0, 500.0, 25)
        prods = []
        for t in ts:
            w = t * (1.0 + 1.0j) / np.sqrt(2.0)
            smp = displacement(sol, table, mapping, mat, loading, w)
            prods.append(abs(smp.u - smp.u0) * abs(w))
        prods = np.asarray(prods)
        assert prods.max() < np.inf
        assert (prods.max() - prods.min()) / prods.max() < 0.2

    def test_domain_error(self):
        mapping, mat, loading, table, sol = solved_figure("fig1", 12)
        for w in (0.5, complex(np.nan, 0.0), complex(1.5, np.nan)):
            with pytest.raises(DomainError):
                displacement(sol, table, mapping, mat, loading, w)

    @pytest.mark.parametrize("name", ("fig2", "random"))
    def test_matches_the_evaluators_bitwise(self, name):
        if name == "random":
            mapping = random_univalent_map(np.random.default_rng(3), 5)
            table, sol = _solved(mapping, 20, 3)
            mat, loading = FIG_MATERIAL, random_loading(np.random.default_rng(3), 20)
        else:
            mapping, mat, loading, table, sol = solved_figure(name)
        # displacement's region rule: |w| <= 1 + 1e-10 is boundary
        for radius, region in ((1.0, "boundary"), (1.0 + 0.5e-10, "boundary"),
                               (1.0 + 2e-10, "exterior"), (1.7, "exterior")):
            for theta in (0.3, 2.0, 4.4):
                w = radius * np.exp(1j * theta)
                smp = displacement(sol, table, mapping, mat, loading, w)
                z = smp.z
                assert smp.region == region and smp.w == w
                assert abs(z - mapping.eval(w)) <= 1e-15
                if region == "boundary":
                    assert smp.u0 == eval_u0(loading, table, mat, z)
                    assert smp.S == single_layer_interior(sol, table, mapping, mat, z)
                    assert smp.u == sol.rigid_motion(z)
                else:
                    # a probe's exterior u0 comes from the Grunsky rows
                    wa = np.array([w])
                    u0 = _exterior_u0(loading, table, mapping, mat, wa, np.array([z]),
                                      mapping.derivative(wa))
                    assert smp.u0 == u0[0]
                    ref = eval_u0(loading, table, mat, z)
                    assert abs(smp.u0 - ref) <= 1e-13 * abs(ref)
                    assert smp.S == single_layer_exterior(sol, table, mapping, mat, w)
                    assert smp.u == smp.u0 + smp.S


class TestFieldGrid:
    def test_far_grid_matches_u0(self):
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        grid = GridSpec(50.0, 51.0, 50.0, 51.0, 2, 2)
        samples = field_grid(sol, table, mapping, mat, loading, grid)
        assert len(samples) == 4
        for smp in samples:
            assert smp.region == "exterior"
            assert abs(smp.u - smp.u0) < 0.05 * abs(smp.u0)

    def test_classification(self):
        mapping, mat, loading, table, sol = solved_figure("fig2", 16)
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
        samples = field_grid(sol, table, mapping, mat, loading, grid)
        regions = {s.region for s in samples}
        assert "interior" in regions and "exterior" in regions
        origin = [s for s in samples if abs(s.z) < 1e-12][0]
        assert origin.region == "interior"
        assert abs(origin.u - sol.rigid_motion(origin.z)) < 1e-14
        corner = samples[0]
        assert corner.z == -2.0 - 2.0j
        assert corner.region == "exterior"
        assert abs(corner.u - (corner.u0 + corner.S)) < 1e-14

    def test_interior_matches_u0_plus_S(self):
        # inside a rigid inclusion the continuation u0 + S is the rigid motion
        # (the fig3 boundary radius dips to ~0.65, so stay within 0.3)
        mapping, mat, loading, table, sol = solved_figure("fig3", 24)
        grid = GridSpec(-0.3, 0.3, -0.3, 0.3, 5, 5)
        samples = field_grid(sol, table, mapping, mat, loading, grid)
        for smp in samples:
            assert smp.region == "interior"
            assert abs(smp.u0 + smp.S - smp.u) < 1e-6

    def test_point_on_boundary(self):
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        zb = complex(mapping.boundary_point(0.0))
        grid = GridSpec(zb.real, zb.real + 1.0, zb.imag, zb.imag + 1.0, 2, 2)
        samples = field_grid(sol, table, mapping, mat, loading, grid)
        assert samples[0].region == "boundary"
        assert abs(samples[0].u - sol.rigid_motion(zb)) < 1e-12

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 1, 5)

    def test_points_go_through_the_public_evaluators(self, monkeypatch):
        # benchmarks/tracing.py times and counts the grid's points by
        # replacing these module globals, so every point must reach them
        import faberelast.fields as fields

        seen = {"exterior": 0, "interior": 0}

        def counting(key, fn):
            def wrapper(*args):
                seen[key] += np.size(args[4])
                return fn(*args)
            return wrapper

        for key in seen:
            name = f"single_layer_{key}"
            monkeypatch.setattr(fields, name, counting(key, getattr(fields, name)))
        mapping, mat, loading, table, sol = solved_figure("fig2", 16)
        grid = field_grid(sol, table, mapping, mat, loading, GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21))
        exterior = int((grid.region == EXTERIOR).sum())
        assert 0 < exterior < len(grid)
        assert seen == {"exterior": exterior, "interior": len(grid) - exterior}

    def test_repeat_grids_write_identical_bytes(self, tmp_path):
        from faberelast import write_field_csv

        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 11, 11)
        first = field_grid(sol, table, mapping, mat, loading, grid)
        second = field_grid(sol, table, mapping, mat, loading, grid)
        write_field_csv(first, tmp_path / "first.csv")
        write_field_csv(second, tmp_path / "second.csv")
        assert (tmp_path / "first.csv").read_bytes() == (
            tmp_path / "second.csv"
        ).read_bytes()


def _same(a, b):
    """Bitwise-style equality of two complex values, NaN equal to NaN."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _reference_sample(sol, table, mapping, mat, loading, z):
    """One grid point classified and evaluated on its own."""
    wv, converged = mapping.invert(z)
    w, r = complex(wv[0]), abs(wv[0])
    assert converged[0]
    u0 = complex(eval_u0(loading, table, mat, z))
    if r > 1.0 + 1e-10:
        S = complex(single_layer_exterior(sol, table, mapping, mat, w))
        return FieldSample(z=z, w=w, region="exterior", u0=u0, S=S, u=u0 + S)
    S = complex(single_layer_interior(sol, table, mapping, mat, z))
    region = "boundary" if abs(r - 1.0) <= 1e-10 else "interior"
    if region == "interior":
        w = complex(np.nan, np.nan)
    return FieldSample(z=z, w=w, region=region, u0=u0, S=S, u=complex(sol.rigid_motion(z)))


class TestFieldGridContainer:
    def test_samples_match_point_by_point_reference(self):
        mapping, mat, loading, table, sol = solved_figure("fig2", 16)
        spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
        grid = field_grid(sol, table, mapping, mat, loading, spec)
        assert isinstance(grid, FieldGrid)
        assert grid.z.shape == (21, 21)
        xs = np.linspace(-2.0, 2.0, 21)
        ys = np.linspace(-2.0, 2.0, 21)
        points = (xs[None, :] + 1j * ys[:, None]).ravel()
        samples = list(grid)
        assert len(samples) == len(grid) == 21 * 21
        for k, (smp, z) in enumerate(zip(samples, points)):
            ref = _reference_sample(sol, table, mapping, mat, loading, complex(z))
            assert smp.z == ref.z and smp.region == ref.region, k
            for name in ("w", "u0", "S", "u"):
                got, want = getattr(smp, name), getattr(ref, name)
                assert np.isnan(got) == np.isnan(want), (k, name)
                if not np.isnan(want):
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (k, name)
            indexed = grid[k]
            assert all(_same(getattr(indexed, f), getattr(smp, f)) for f in
                       ("z", "w", "u0", "S", "u")) and indexed.region == smp.region
        assert {"interior", "exterior"} <= {s.region for s in samples}
        last = grid[-1]
        assert last.z == samples[-1].z
        with pytest.raises(IndexError):
            grid[len(grid)]

    def test_region_codes_and_arrays(self):
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        grid = field_grid(sol, table, mapping, mat, loading,
                          GridSpec(-2.0, 2.0, -2.0, 2.0, 11, 11))
        exterior = grid.region == EXTERIOR
        np.testing.assert_array_equal(grid.u[exterior], grid.u0[exterior] + grid.S[exterior])
        assert np.isnan(grid.w[grid.region == INTERIOR]).all()
        assert not np.isnan(grid.w[exterior]).any()

    def test_point_on_boundary_is_not_ambiguous(self):
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        zb = complex(mapping.boundary_point(0.0))
        grid = field_grid(sol, table, mapping, mat, loading,
                          GridSpec(zb.real, zb.real + 1.0, zb.imag, zb.imag + 1.0, 2, 2))
        assert grid.region[0, 0] == BOUNDARY
        assert abs(abs(grid.w[0, 0]) - 1.0) < 1e-10
        assert grid.unconverged == 0
        assert grid.ambiguous.shape == (2, 2) and not grid.ambiguous.any()

    def test_far_field_grid_has_no_ambiguous_points(self):
        mapping, mat, loading, table, sol = solved_figure("fig3", 16)
        grid = field_grid(sol, table, mapping, mat, loading,
                          GridSpec(20.0, 40.0, -40.0, 40.0, 9, 17))
        assert (grid.region == EXTERIOR).all()
        assert grid.unconverged == 0
        assert not grid.ambiguous.any()

    def test_unconverged_points_are_flagged(self, monkeypatch, tmp_path):
        # Newton reports every point unconverged: the polygon test puts the
        # enclosed points inside and reports the rest as ambiguous boundary
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        invert = ExteriorMap.invert

        def failing_invert(self, z, *args, **kwargs):
            w, converged = invert(self, z, *args, **kwargs)
            return w, np.zeros_like(converged)

        monkeypatch.setattr(ExteriorMap, "invert", failing_invert)
        grid = field_grid(sol, table, mapping, mat, loading,
                          GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9))
        assert grid.unconverged == 81
        inside = grid.region == INTERIOR
        assert inside[4, 4] and inside.sum() < 81
        np.testing.assert_array_equal(grid.ambiguous, ~inside)
        assert (grid.region[~inside] == BOUNDARY).all()
        assert np.isnan(grid.w).all()
        write_field_csv(grid, tmp_path / "f.csv")
        rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
        assert sum(r.split(",")[4] == "boundary" for r in rows) == int((~inside).sum())
        assert all(r.split(",")[2:4] == ["nan", "nan"] for r in rows)


def _reference_csv(samples):
    """Per-value writer: each number formatted on its own."""

    def num(x):
        return "%.17g" % x if np.isfinite(x) else "nan"

    lines = ["x,y,re_w,im_w,region,re_u0,im_u0,re_S,im_S,re_u,im_u"]
    for smp in samples:
        row = [num(smp.z.real), num(smp.z.imag), num(smp.w.real), num(smp.w.imag),
               smp.region]
        for v in (smp.u0, smp.S, smp.u):
            row += [num(v.real), num(v.imag)]
        lines.append(",".join(row))
    return lines


def _hand_grid(rng, ny, nx, special=()):
    shape = (ny, nx)

    def cplx():
        scale = 10.0 ** rng.integers(-5, 5, size=shape)
        return rng.normal(size=shape) * scale + 1j * rng.normal(size=shape)

    fields = {name: cplx() for name in ("z", "w", "u0", "S", "u")}
    region = rng.integers(0, 3, size=shape).astype(np.int8)
    for name, index, value in special:
        fields[name][index] = value
    return FieldGrid(region=region, ambiguous=np.zeros(shape, dtype=bool),
                     unconverged=0, **fields)


class TestWriteFieldCsv:
    def test_special_values_match_reference(self, tmp_path):
        inf, nan = np.inf, np.nan
        special = [
            ("z", (0, 0), complex(-0.0, 0.0)),
            ("z", (0, 1), complex(1e-300, -0.0)),
            ("u0", (0, 0), complex(inf, -inf)),
            ("S", (0, 1), complex(nan, -0.0)),
            ("u", (1, 0), complex(1e-300, -1e-300)),
            ("w", (1, 1), complex(-inf, 5e-324)),
            ("S", (2, 2), complex(inf, inf)),
        ]
        grid = _hand_grid(np.random.default_rng(3), 3, 4, special)
        # an ambiguous point: unconverged, outside the polygon, no preimage
        grid.region[2, 3] = BOUNDARY
        grid.w[2, 3] = complex(nan, nan)
        grid.ambiguous[2, 3] = True
        write_field_csv(grid, tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().split("\n")
        assert lines[-1] == ""
        assert lines[:-1] == _reference_csv(grid)
        assert lines[1].startswith("-0,0,")
        assert lines[2].startswith("1e-300,-0,")
        assert lines[1].split(",")[5:7] == ["nan", "nan"]
        assert lines[6].split(",")[2:4] == ["nan", "4.9406564584124654e-324"]
        assert lines[12].split(",")[2:5] == ["nan", "nan", "boundary"]
        assert "inf" not in "".join(lines)

    def test_chunk_remainder(self, tmp_path):
        # 7 * 1000 lines is not a multiple of the chunk
        grid = _hand_grid(np.random.default_rng(4), 1000, 7)
        write_field_csv(grid, tmp_path / "f.csv")
        text = (tmp_path / "f.csv").read_text()
        assert text.count("\n") == 7 * 1000 + 1
        assert text.split("\n")[:-1] == _reference_csv(grid)

    def test_rows_wider_than_chunk(self, tmp_path):
        grid = _hand_grid(np.random.default_rng(5), 3, 5000)
        write_field_csv(grid, tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_text().split("\n")[:-1] == _reference_csv(grid)


class TestEvalU0FarField:
    def test_u0_dominates_far_away(self):
        mapping, mat, loading, table, sol = solved_figure("fig2", 16)
        w = 300.0 * np.exp(1.1j)
        smp = displacement(sol, table, mapping, mat, loading, w)
        u0 = eval_u0(loading, table, mat, smp.z)
        assert abs(smp.u - u0) / abs(u0) < 1e-3

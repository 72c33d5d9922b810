import dataclasses
import importlib
import importlib.util
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from faberelast import (
    DomainError,
    ExteriorMap,
    FarFieldLoading,
    FieldGrid,
    FieldSample,
    GridSpec,
    Material,
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
    validation_checks,
    write_field_csv,
)
from faberelast import fields
from faberelast.cli import load_job
from faberelast import csvtext
from faberelast.conformal import _BLOCK_VALUES, _HORNER_TERMS, _blocked_horner, _powers, _row_sums
from faberelast.faber import _grunsky_wide, faber_values
from faberelast.fields import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    _exterior_field,
    _interior_field,
    _S_rows,
    _u0_rows,
)
from faberelast.solver import DensitySolution, truncation_floor
from util import (
    FIG_LOADING,
    FIG_MAPS,
    FIG_MATERIAL,
    HARD_SHAPES,
    frozen_derivative,
    frozen_eval,
    plain_horner,
    random_loading,
    random_univalent_map,
    solved_figure,
    square_map,
)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("g17_oracle", ROOT / "tools" / "g17_oracle.py")
g17_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(g17_oracle)


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
        for w in (0.99, complex(np.nan, 0.0), np.array([2.0, np.nan]),
                  np.inf, -np.inf, complex(np.inf, 0.0), np.array([2.0, np.inf])):
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
        err = np.abs(got - plain_horner(coef, x))
        assert (err <= KERNEL_TOL * _horner_scale(coef, x)).all()

    def test_point_counts_around_the_chunk(self):
        R, K = 7, 1718
        B = 42  # ceil(sqrt(1718))
        chunk = _BLOCK_VALUES // (-(-K // B) * R)
        rng = np.random.default_rng(1)
        coef = rng.normal(size=(R, K)) + 1j * rng.normal(size=(R, K))
        x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, chunk + 1))
        ref = plain_horner(coef, x)
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
            err = np.abs(got - plain_horner(coef, x[:count]))
            assert (err <= KERNEL_TOL * _horner_scale(coef, x[:count])).all(), count

    @pytest.mark.parametrize("K", (1, 2, 32, 33, 400, 1741))
    @pytest.mark.parametrize("radius", (1.0, 0.5))
    def test_one_point_is_one_block(self, K, radius):
        # _row_sums takes B = K at one point: the power table and one
        # product; _blocked_horner treats one point like many
        rng = np.random.default_rng(K)
        coef = rng.normal(size=(4, K)) + 1j * rng.normal(size=(4, K))
        for theta in rng.uniform(0.0, 2.0 * np.pi, 5):
            x = np.array([radius * np.exp(1j * theta)])
            for got in (_row_sums((coef,), x)[0], _blocked_horner(coef, x)):
                assert got.shape == (4, 1)
                err = np.abs(got - plain_horner(coef, x))
                assert (err <= KERNEL_TOL * _horner_scale(coef, x)).all()


class TestPowerTable:
    """A doubled power table: a prefix holds the bits of a shorter table.

    A probe sums the map, S and u0 rows in u from one table built to the
    longest row; this is what keeps its bits those of a table per row set.
    """

    @staticmethod
    def _points(count, radius):
        rng = np.random.default_rng(count)
        return radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))

    @pytest.mark.parametrize("count", (1, 7))
    @pytest.mark.parametrize("K", (1, 2, 3, 63, 64, 65, 2048, 2100))
    def test_prefix_is_the_shorter_table(self, K, count):
        for radius in (1.0, 0.5):
            x = self._points(count, radius)
            table = _powers(x, K)
            assert table.shape == (K, count)
            for k in range(1, K + 1):
                np.testing.assert_array_equal(table[:k], _powers(x, k), err_msg=f"k={k}")

    def test_prefix_product_is_the_one_point_sum(self):
        rng = np.random.default_rng(4)
        lengths = (1, 2, 14, 32, 33, 61, 722, 998, 1442, 1718, 2100)
        for radius in (1.0, 0.5):
            for x in self._points(10, radius):
                x = np.array([x])
                table = _powers(x, max(lengths))
                for k in lengths:
                    coef = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
                    np.testing.assert_array_equal(coef @ table[:k], _row_sums((coef,), x)[0])


class TestMapRows:
    """Psi - w and Psi' - 1 as two rows in u = 1/w, summed by the series
    kernel, against the frozen plain-Horner loop."""

    CASES = ["fig1", "fig2", "fig3", "disk"] + [f"M={M}" for M in (0, 1, 7, 30)]

    @staticmethod
    def _case(name):
        rng = np.random.default_rng(len(name))
        if name.startswith("fig"):
            mp = FIG_MAPS[name]
        elif name == "disk":
            mp = ExteriorMap(())
        else:
            order = int(name[2:])
            mp = random_univalent_map(rng, order) if order else ExteriorMap((0.3,))
        w = rng.uniform(1.0, 20.0, 1000) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
        return mp, w

    @pytest.mark.parametrize("name", CASES)
    def test_bit_equal_to_the_map_evaluators(self, name):
        # rows of at most _HORNER_TERMS terms take the frozen loop's Horner steps
        mp, w = self._case(name)
        assert mp.order + 2 <= _HORNER_TERMS
        theta = np.angle(w)
        for count in (2, 3, len(w)):
            wc = w[:count]
            for got, ref in ((mp._eval_raw(wc), frozen_eval(mp, wc)),
                             (mp.eval(wc), frozen_eval(mp, wc)),
                             (mp._derivative_raw(wc), frozen_derivative(mp, wc)),
                             (mp.derivative(wc), frozen_derivative(mp, wc)),
                             (mp.boundary_point(theta[:count]),
                              frozen_eval(mp, np.exp(1j * theta[:count])))):
                np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_one_point_matches_the_map(self):
        # numpy may round a complex product of one element unlike one of many
        for name in self.CASES:
            mp, w = self._case(name)
            for wp in w[:50]:
                for got, ref in ((mp.eval(wp), frozen_eval(mp, wp)),
                                 (mp.derivative(wp), frozen_derivative(mp, wp))):
                    assert abs(got - ref) <= 1e-15 * abs(ref), name

    @pytest.mark.parametrize("coeffs", [(0.0, 0.1 + 0.1j), (0.3,), (0.2, 0.0, -0.1j), ()])
    def test_pole_at_zero(self, coeffs):
        # a nonzero row is inf at w = 0, with no division warning; a zero
        # row (Psi - w of the disk, Psi' - 1 at order 0) stays zero there
        mp = ExteriorMap(coeffs)
        for w in (0.0, np.array([2.0, 0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                psi, dpsi = mp._eval_raw(w), mp._derivative_raw(w)
            np.testing.assert_array_equal(psi, frozen_eval(mp, w))
            np.testing.assert_array_equal(dpsi, frozen_derivative(mp, w))
        assert mp._eval_raw(0.0) == (np.inf if coeffs else 0.0)
        assert mp._derivative_raw(0.0) == (np.inf if mp.order else 1.0)


class TestKeptRows:
    """The exterior rows kept once per solution and loading, per table."""

    @staticmethod
    def _probe(sol, table, mapping, loading, w):
        return displacement(sol, table, mapping, FIG_MATERIAL, loading, w)

    def _case(self):
        mapping = random_univalent_map(np.random.default_rng(8), 6)
        table, sol = _solved(mapping, 24, 8)
        return mapping, table, sol, random_loading(np.random.default_rng(8), 24)

    def test_equality_and_hash_follow_identity(self):
        mapping, table, sol, loading = self._case()
        _, sol2 = _solved(mapping, 24, 8)
        loading2 = FarFieldLoading(loading.A, loading.B)
        for a, b in ((sol, sol2), (loading, loading2)):
            assert a == a and hash(a) == hash(a)
            assert a != b and len({a, b}) == 2

    def test_solution_and_loading_arrays_are_read_only(self):
        mapping, table, sol, loading = self._case()
        for array in (sol.s, sol.t, loading.A, loading.B):
            with pytest.raises(ValueError):
                array[0] = 1.0
        given = np.array([0.0, 1.0 + 0.0j])
        FarFieldLoading(given, given)
        built = DensitySolution(given, given, 0.0, 0.0, 0.0, 2)
        assert not built.s.flags.writeable and not built.t.flags.writeable
        given[0] = 2.0  # the caller's array is copied, not frozen
        assert built.s[0] == 0.0 and built.t[0] == 0.0

    def test_pickle_rebuilds_what_is_kept(self):
        mapping, mat, loading, table, sol = solved_figure("fig1")
        points = (1.7 + 0.3j, np.exp(0.4j))  # exterior and boundary
        before = [displacement(sol, table, mapping, mat, loading, w) for w in points]
        mapping.boundary_samples(256)
        assert sol._rows is not None and "univalence" in vars(mapping)
        sol2, table2, loading2, mapping2 = pickle.loads(
            pickle.dumps((sol, table, loading, mapping)))
        assert table2.mapping is mapping2
        assert sol2._rows is None and loading2._rows is None and mapping2._samples == {}
        assert "univalence" not in vars(mapping2) and "_u_rows" not in vars(mapping2)
        assert "_grunsky_wide" in vars(table) and "_grunsky_wide" not in vars(table2)
        for array in (sol2.s, sol2.t, loading2.A, loading2.B, mapping2._u_rows, table2.d,
                      *mapping2.boundary_samples(256)):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            sol2.s[0] += 1
        after = [displacement(sol2, table2, mapping2, mat, loading2, w) for w in points]
        for a, b in zip(before, after):
            bits = [np.array([x.z, x.w, x.u0, x.S, x.u]).tobytes() for x in (a, b)]
            assert a.region == b.region and bits[0] == bits[1]

    def test_hit_gives_the_bits_of_a_miss(self):
        mapping, table, sol, loading = self._case()
        for w in (1.0 + 2e-10, 1.7 - 0.2j, 40.0j):
            hit = [self._probe(sol, table, mapping, loading, w) for _ in range(2)][1]
            assert sol._rows[0] is table and loading._rows[0] is table
            fresh = dataclasses.replace(sol), dataclasses.replace(loading)
            assert fresh[0]._rows is None and fresh[1]._rows is None
            miss = self._probe(fresh[0], table, mapping, fresh[1], w)
            assert hit == miss
            wa = np.array([w, 2.0 * w])
            S = single_layer_exterior(sol, table, mapping, FIG_MATERIAL, wa)
            np.testing.assert_array_equal(
                S, single_layer_exterior(dataclasses.replace(sol), table, mapping,
                                         FIG_MATERIAL, wa))

    def test_another_table_replaces_the_slot(self):
        mapping, table, sol, loading = self._case()
        w = 1.3 + 0.9j
        ref = self._probe(sol, table, mapping, loading, w)
        last = table
        for extra in range(1, 6):
            last = build_faber(mapping, table.order + extra)
            got = self._probe(sol, last, mapping, loading, w)
            for rows in (sol._rows, loading._rows):
                assert len(rows) == 2 and rows[0] is last
            for name in ("u0", "S", "u"):
                a, b = getattr(got, name), getattr(ref, name)
                assert abs(a - b) <= 1e-14 * abs(b), name
        assert self._probe(sol, table, mapping, loading, w) == ref
        assert sol._rows[0] is table and loading._rows[0] is table

    def test_every_check_runs_on_a_hit(self):
        mapping, table, sol, loading = self._case()
        self._probe(sol, table, mapping, loading, 2.0)
        kept = sol._rows, loading._rows
        other = ExteriorMap((0.0, 0.2))
        with pytest.raises(ValueError):
            self._probe(sol, build_faber(other, table.order), mapping, loading, 2.0)
        # the table is checked before any rows are built from it
        assert sol._rows is kept[0] and loading._rows is kept[1]
        with pytest.raises(ValueError):
            self._probe(sol, table, other, loading, 2.0)
        with pytest.raises(ValueError):
            single_layer_exterior(sol, table, other, FIG_MATERIAL, 2.0)
        for w in (0.5, complex(np.nan, 0.0), np.inf):
            with pytest.raises(DomainError):
                self._probe(sol, table, mapping, loading, w)
            with pytest.raises(DomainError):
                single_layer_exterior(sol, table, mapping, FIG_MATERIAL, w)
        high = random_loading(np.random.default_rng(9), table.order + 1)
        with pytest.raises(IndexError):
            self._probe(sol, table, mapping, high, 2.0)
        assert self._probe(sol, table, mapping, loading, 2.0).region == "exterior"
        assert sol._rows is kept[0] and loading._rows is kept[1]  # a hit on both slots


#: maps of the exterior u0 envelope, by name
_U0_MAPS = {
    "M=0": ExteriorMap(()),
    **{f"M={order}": random_univalent_map(np.random.default_rng(order), order, margin=0.99)
       for order in (1, 12, 24)},
    **HARD_SHAPES,
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
                S, got, _ = _exterior_field(zero, table, mp, FIG_MATERIAL, loading, w)
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

    @pytest.mark.parametrize("name", sorted(HARD_SHAPES))
    def test_hard_shapes_against_quadrature(self, name):
        mp = HARD_SHAPES[name]
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
        mp = HARD_SHAPES[name]
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
            **HARD_SHAPES,
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


class TestRotationCovariance:
    """Rotating the inclusion and the loading by theta rotates the field.

    The map e^{i theta} Psi(e^{-i theta} w) has a_k e^{i(k+1) theta}, and
    its Faber polynomials are e^{i m theta} F_m(e^{-i theta} z).  So the
    loading A_m e^{i(1-m) theta}, B_m e^{-i(m+1) theta} makes h, z conj(h')
    and conj(l) turn by e^{i theta}, and the field at e^{i theta} w must be
    e^{i theta} times the field at w: c1 + i c2 turns, c3 stays.  A conj
    misplaced on a quantity that turns (z, Psi, h) breaks this, where
    linearity cannot see it.
    """

    @staticmethod
    def _cases():
        rng = np.random.default_rng(5150)
        maps = {f"M={order}": random_univalent_map(np.random.default_rng(order), order, margin=0.99)
                for order in (1, 3, 8, 24)}
        for name, mp in {**maps, **HARD_SHAPES}.items():
            yield name, mp, int(rng.integers(1, 61)), rng.uniform(0.0, 2.0 * np.pi)
        yield "M=24, degree 60", maps["M=24"], 60, 2.5

    def test_field_turns_with_the_inclusion(self):
        rng = np.random.default_rng(7)
        for name, mp, degree, theta in self._cases():
            turn = np.exp(1j * theta)
            k = np.arange(mp.order + 1)
            turned = ExteriorMap(np.asarray(mp.coefficients) * turn ** (k + 1))
            loading = random_loading(np.random.default_rng(degree), degree)
            m = np.arange(len(loading.A))
            turned_loading = FarFieldLoading(loading.A * turn ** (1 - m), loading.B * turn ** -(m + 1))
            w = np.concatenate([np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3)),
                                _exterior_points(rng, 5)])
            n = degree + max(mp.order, 1)
            fields = []
            for mapping, load, points in ((mp, loading, w), (turned, turned_loading, turn * w)):
                table = build_faber(mapping, required_table_order(mapping, n))
                sol = solve_full(mapping, load, FIG_MATERIAL, n, table=table)
                samples = [displacement(sol, table, mapping, FIG_MATERIAL, load, p) for p in points]
                fields.append((sol, np.array([[s.z, s.u0, s.S, s.u] for s in samples])))
            (sol, ref), (got_sol, got) = fields
            scale = np.abs(ref).max(axis=0)
            assert (np.abs(got - turn * ref) <= 1e-12 * scale).all(), name
            c = complex(sol.c1, sol.c2)
            assert abs(complex(got_sol.c1, got_sol.c2) - turn * c) <= 1e-12 * max(abs(c), 1.0), name
            assert abs(got_sol.c3 - sol.c3) <= 1e-12 * max(abs(sol.c3), 1.0), name


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
        for w in (0.5, complex(np.nan, 0.0), complex(1.5, np.nan),
                  np.inf, -np.inf, complex(np.inf, 0.0), complex(1.5, -np.inf)):
            with pytest.raises(DomainError):
                displacement(sol, table, mapping, mat, loading, w)

    @pytest.mark.parametrize("name", ("fig2", "random", "long rows"))
    def test_matches_the_evaluators_bitwise(self, name):
        if name == "random":
            mapping = random_univalent_map(np.random.default_rng(3), 5)
            table, sol = _solved(mapping, 20, 3)
            mat, loading = FIG_MATERIAL, random_loading(np.random.default_rng(3), 20)
        elif name == "long rows":
            # map order 12, degree 60: the S and u0 rows in u and the u0
            # rows in w differ in length, all above _HORNER_TERMS
            mapping = random_univalent_map(np.random.default_rng(12), 12)
            table, sol = _solved(mapping, 60, 12)
            mat, loading = FIG_MATERIAL, random_loading(np.random.default_rng(12), 60)
            displacement(sol, table, mapping, mat, loading, 2.0)
            lengths = {rows.shape[1] for rows in (sol._rows[1][0], *loading._rows[1])}
            assert len(lengths) == 3 and min(lengths) > _HORNER_TERMS
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
                    S, u0, psi = _exterior_field(sol, table, mapping, mat, loading, np.array([w]))
                    assert (smp.S, smp.u0, smp.z) == (S[0], u0[0], psi[0])
                    ref = eval_u0(loading, table, mat, z)
                    assert abs(smp.u0 - ref) <= 1e-13 * abs(ref)
                    assert smp.S == single_layer_exterior(sol, table, mapping, mat, w)
                    assert smp.u == smp.u0 + smp.S


class TestRigidDiskOracle:
    """A rigid disk under a linear far field, against its closed form.

    For Psi(w) = w and h = A_0 + A_1 z, l = B_0 + B_1 z, the perturbation is
    the Kolosov-Muskhelishvili displacement of phi = a/z, psi = b/z + a/z**3,

        S = (kappa a/z + z conj(a)/conj(z)**2 - conj(b/z + a/z**3))/2,

    with a = conj(B_1)/kappa, which cancels the conj(B_1) conj(z) term of u0
    on |z| = 1, and b = (kappa - 1) Re A_1, real as a moment-free inclusion
    needs.  On |z| = 1 then u0 + S = (kappa A_0 - conj(B_0))/2
    + i (kappa + 1) Im(A_1) z/2, a rigid motion (Muskhelishvili, Some Basic
    Problems of the Mathematical Theory of Elasticity).
    """

    TOL = 1e-14

    @pytest.mark.parametrize("mat", (FIG_MATERIAL, Material.from_lame(1.0, 0.7)),
                             ids=("figure", "lame"))
    def test_displacement_matches_the_closed_form(self, mat):
        mapping = ExteriorMap(())
        rng = np.random.default_rng(7)
        table = build_faber(mapping, required_table_order(mapping, 4))
        kappa = mat.kappa
        for _ in range(3):
            A, B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            loading = FarFieldLoading(A, B)
            sol = solve_full(mapping, loading, mat, 4, table=table)
            a, b = np.conj(B[1]) / kappa, (kappa - 1.0) * A[1].real
            for radius in (1.0, 1.5, 10.0, 1e3):
                for theta in (0.3, 2.0, 4.4):
                    z = radius * np.exp(1j * theta)
                    S = 0.5 * (kappa * a / z + z * np.conj(a) / np.conj(z) ** 2
                               - np.conj(b / z + a / z**3))
                    u0 = 0.5 * (kappa * (A[0] + A[1] * z) - z * np.conj(A[1])
                                - np.conj(B[0] + B[1] * z))
                    smp = displacement(sol, table, mapping, mat, loading, z)
                    assert abs(smp.S - S) <= self.TOL * abs(S)
                    assert abs(smp.u0 - u0) <= self.TOL * abs(u0)
                    if radius == 1.0:
                        assert smp.region == "boundary"
                        assert abs(smp.u - (u0 + S)) <= self.TOL * abs(u0 + S)


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
    """One grid point classified and evaluated on its own.

    An exterior point takes one more Newton step from its preimage and
    is then the probe ``displacement`` at the polished w.
    """
    wv, converged = mapping.invert(z)
    w, r = complex(wv[0]), abs(wv[0])
    assert converged[0]
    if r > 1.0 + 1e-10:
        w -= (mapping.eval(w) - z) / mapping.derivative(w)
        return dataclasses.replace(displacement(sol, table, mapping, mat, loading, w), z=z)
    u0 = complex(eval_u0(loading, table, mat, z))
    S = complex(single_layer_interior(sol, table, mapping, mat, z))
    region = "boundary" if abs(r - 1.0) <= 1e-10 else "interior"
    if region == "interior":
        w = complex(np.nan, np.nan)
    return FieldSample(z=z, w=w, region=region, u0=u0, S=S, u=complex(sol.rigid_motion(z)))


def _grid_case(name):
    """Solved inputs and a grid: the fig2 21 x 21 grid, or a seeded (12, 60) one."""
    if name == "fig2":
        return (*solved_figure("fig2", 16), GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21))
    mapping = random_univalent_map(np.random.default_rng(12), 12)
    table, sol = _solved(mapping, 60, 12)
    loading = random_loading(np.random.default_rng(12), 60)
    return mapping, FIG_MATERIAL, loading, table, sol, GridSpec(-1.8, 1.6, -1.7, 1.9, 23, 19)


class TestExteriorGridPath:
    """Exterior grid points are probes at a polished preimage."""

    @pytest.mark.parametrize("name", ("fig2", "order 12, degree 60"))
    def test_polished_preimage_and_probe_values(self, name, monkeypatch):
        import faberelast.fields as fields

        seen = {"_interior_field": [], "single_layer_exterior": []}

        def recording(key, fn):
            def wrapper(*args):
                seen[key].append(np.array(args[-1], dtype=complex).ravel())
                return fn(*args)
            return wrapper

        for key in seen:
            monkeypatch.setattr(fields, key, recording(key, getattr(fields, key)))
        mapping, mat, loading, table, sol, spec = _grid_case(name)
        grid = field_grid(sol, table, mapping, mat, loading, spec)
        monkeypatch.undo()
        exterior = grid.region == EXTERIOR
        assert 0 < exterior.sum() < len(grid)
        eps = np.finfo(float).eps
        z, w = grid.z[exterior], grid.w[exterior]
        assert (np.abs(mapping.eval(w) - z) <= 4 * eps * np.maximum(1.0, np.abs(z))).all()
        # a grid sums S by blocked Horner, a probe by one power-table
        # product; their roundings differ by up to about eps times the
        # absolute sum of S's terms, which next to the boundary at high
        # degree is thousands of times |S|
        (rows,) = sol._rows[1]
        for k in np.flatnonzero(exterior):
            smp = displacement(sol, table, mapping, mat, loading, grid.w.flat[k])
            terms = np.abs(rows).sum(axis=0) @ np.abs(1.0 / smp.w) ** np.arange(rows.shape[1])
            for column in ("u0", "S", "u"):
                got, want = getattr(grid, column).flat[k], getattr(smp, column)
                rounding = 4 * eps * terms if column != "u0" else 0.0
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)) + rounding, (k, column)
        # the Faber recurrence runs at the other points only, in one call
        assert len(seen["_interior_field"]) == 1
        np.testing.assert_array_equal(seen["_interior_field"][0], grid.z[~exterior])
        assert seen["single_layer_exterior"] == []


def _interior_cases():
    """(name, mapping, loading, table, solution): the figures, the hard
    shapes and seeded maps up to order 30 and degree 200."""
    for name in sorted(FIG_MAPS):
        mapping, _, loading, table, sol = solved_figure(name)
        yield name, mapping, loading, table, sol
    for name in sorted(HARD_SHAPES):
        mapping = HARD_SHAPES[name]
        table, sol = _solved(mapping, 30, 5)
        yield name, mapping, random_loading(np.random.default_rng(5), 30), table, sol
    for order, degree, margin in ((24, 200, 0.99), (30, 80, 0.9), (12, 120, 0.9)):
        mapping = random_univalent_map(np.random.default_rng(order), order, margin=margin)
        table, sol = _solved(mapping, degree, order)
        yield f"seeded ({order}, {degree})", mapping, random_loading(
            np.random.default_rng(order), degree), table, sol


class TestInteriorField:
    """S and u0 inside from one Faber table, with the bits of the two sums."""

    def test_bits_of_the_separate_sums(self):
        for name, mapping, loading, table, sol in _interior_cases():
            # a zero density: at high degree u0's series is then the longer one
            zero = _mode_solution(sol.order)
            zb = mapping.boundary_samples(256)[1]
            center = zb.mean()
            points = {
                "boundary": zb,
                "inside": center + 0.4 * (zb[::8, None] - center) * np.linspace(0.0, 1.0, 9),
                "one point": zb[5:6],
                "scalar": complex(zb[3]),
            }
            for density in (sol, zero):
                for where, z in points.items():
                    S, u0 = _interior_field(density, table, mapping, FIG_MATERIAL, loading, z)
                    want_S = single_layer_interior(density, table, mapping, FIG_MATERIAL, z)
                    want_u0 = eval_u0(loading, table, FIG_MATERIAL, z)
                    for got, want in ((S, want_S), (u0, want_u0)):
                        assert type(got) is type(want), (name, where)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (
                            name, where, density is zero)

    def test_one_recurrence_per_point_set(self, monkeypatch):
        import faberelast.loading as loading_module

        mapping, mat, loading, table, sol = solved_figure("fig2")
        spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
        calls = []
        recurrence = loading_module._point_values
        monkeypatch.setattr(loading_module, "_point_values",
                            lambda *args: calls.append(1) or recurrence(*args))
        runs = {
            "field_grid": lambda: field_grid(sol, table, mapping, mat, loading, spec),
            "displacement": lambda: displacement(sol, table, mapping, mat, loading,
                                                 (1.0 + 5e-11) * np.exp(0.3j)),
            "transmission_residual": lambda: transmission_residual(
                sol, mapping, table, loading, mat),
            "validation_checks": lambda: validation_checks(sol, mapping, table, loading, mat),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            assert len(calls) == 1, name


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

    def test_slices_are_lists_of_samples(self):
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        grid = field_grid(sol, table, mapping, mat, loading,
                          GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5))
        samples = list(grid)
        assert {"interior", "exterior"} <= {s.region for s in samples}

        def same(a, b):  # w is NaN inside the inclusion, so not a == b
            return a.region == b.region and all(
                _same(getattr(a, f), getattr(b, f)) for f in ("z", "w", "u0", "S", "u"))

        # the last slice is past the 25 points: an empty list
        for index in (slice(1, 3), slice(None, None, -1), slice(10, 16), slice(30, 40)):
            got, want = grid[index], samples[index]
            assert isinstance(got, list) and len(got) == len(want)
            assert all(same(a, b) for a, b in zip(got, want)), index
        assert same(grid[-1], samples[-1])

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
        # Newton reports every point it gets unconverged: the polygon test puts
        # the enclosed points inside and reports the rest as ambiguous boundary.
        # A fresh map, as other tests fill the shared fig maps' sample caches
        _, mat, loading, table, sol = solved_figure("fig1", 16)
        mapping = ExteriorMap(FIG_MAPS["fig1"].coefficients)
        invert = ExteriorMap.invert
        received = []

        def failing_invert(self, z, *args, **kwargs):
            received.append(len(z))
            w, converged = invert(self, z, *args, **kwargs)
            return w, np.zeros_like(converged)

        monkeypatch.setattr(ExteriorMap, "invert", failing_invert)
        grid = field_grid(sol, table, mapping, mat, loading,
                          GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9))
        # the points the polygon surely encloses never reach Newton
        assert grid.unconverged == sum(received) and 0 < sum(received) < 81
        inside = grid.region == INTERIOR
        assert inside[4, 4] and inside.sum() < 81
        np.testing.assert_array_equal(grid.ambiguous, ~inside)
        assert (grid.region[~inside] == BOUNDARY).all()
        assert np.isnan(grid.w).all()
        # one polygon certifies the interior and places the unconverged points
        assert list(mapping._samples) == [256]
        write_field_csv(grid, tmp_path / "f.csv")
        rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
        assert sum(r.split(",")[4] == "boundary" for r in rows) == int((~inside).sum())
        assert all(r.split(",")[2:4] == ["nan", "nan"] for r in rows)


class TestEmptyLoading:
    def test_matches_zero_loading(self):
        # FarFieldLoading([], []) is the zero loading, padded to one coefficient
        mapping, mat, table = FIG_MAPS["fig2"], FIG_MATERIAL, build_faber(FIG_MAPS["fig2"], 20)
        empty, zero = FarFieldLoading([], []), FarFieldLoading([0.0], [0.0])
        assert empty.A.shape == empty.B.shape == (1,) and empty.degree == 0
        sols = [solve_full(mapping, load, mat, 4, table=table) for load in (empty, zero)]
        for name in ("s", "t"):
            assert _same(getattr(sols[0], name), getattr(sols[1], name))
            assert not getattr(sols[0], name).any()
        assert (sols[0].c1, sols[0].c2, sols[0].c3) == (sols[1].c1, sols[1].c2, sols[1].c3)
        assert sols[0].c1 == sols[0].c2 == 0.0
        spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
        grids = [field_grid(sol, table, mapping, mat, load, spec)
                 for sol, load in zip(sols, (empty, zero))]
        for name in ("z", "w", "region", "u0", "S", "u"):
            assert _same(getattr(grids[0], name), getattr(grids[1], name)), name
        assert not grids[0].u0.any() and not grids[0].S.any()
        for w in (1.0, 1.5 + 0.5j, -3.0j):
            pair = [displacement(sol, table, mapping, mat, load, w)
                    for sol, load in zip(sols, (empty, zero))]
            assert pair[0] == pair[1]
        z = np.array([[0.1, -0.2j], [2.0, 1.0 + 1.0j]])
        for points in (z, 0.1 - 0.1j):
            assert _same(eval_u0(empty, table, mat, points), eval_u0(zero, table, mat, points))


def _crossing_parity(z, poly):
    """Even-odd test of the points z, one polygon edge at a time."""
    x, y = z.real, z.imag
    px, py = poly.real, poly.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    inside = np.zeros(z.shape, dtype=bool)
    for i in range(len(poly)):
        if qy[i] != py[i]:
            xin = px[i] + (y - py[i]) * (qx[i] - px[i]) / (qy[i] - py[i])
            inside ^= ((py[i] > y) != (qy[i] > y)) & (x < xin)
    return inside


def _scanline_polygons(xs, ys):
    """Polygons whose rows pass through vertices and along horizontal edges."""
    rng = np.random.default_rng(31)
    on_grid = [complex(xs[i], ys[j]) for i, j in
               [(2, 2), (30, 2), (30, 10), (20, 10), (20, 20), (35, 20), (35, 38), (5, 38),
                (5, 20), (12, 20), (12, 10), (2, 10)]]
    angles = np.sort(rng.uniform(0, 2 * np.pi, 40))
    star = rng.uniform(0.5, 1.8, 40) * np.exp(1j * angles)
    star.real[::5] = xs[rng.integers(0, len(xs), 8)]  # some vertices on grid rows and columns
    star.imag[::4] = ys[rng.integers(0, len(ys), 10)]
    bowtie = np.array([-1.5 - 1.5j, 1.5 + 1.5j, 1.5 - 1.5j, -1.5 + 1.5j])  # crosses itself
    boundary = FIG_MAPS["fig3"].boundary_samples(1024)[1]
    return [np.array(on_grid), star, bowtie, boundary]


def _certify_nothing(monkeypatch):
    """Patch field_grid's certification to certify no point: every point goes to Newton."""
    enclosed = fields._enclosed
    monkeypatch.setattr(fields, "_enclosed", lambda xs, ys, poly, margin=0.0:
                        enclosed(xs, ys, poly, margin) & (margin == 0))


def _certified_cases():
    """(name, solved case, grid) for the comparison with Newton on every point."""
    cases = []
    for fig in ("fig1", "fig2", "fig3"):
        job = load_job(str(ROOT / "configs" / f"{fig}.cfg"))
        cases.append((fig, job.mapping, job.loading, job.material, job.truncation_n, job.grid))
    wide = GridSpec(-3.0, 3.0, -3.0, 3.0, 81, 81)
    seeded = random_univalent_map(np.random.default_rng(12), 12, margin=0.99)
    loading = random_loading(np.random.default_rng(5), 60)
    cases.append(("(12, 60) seeded", seeded, loading, FIG_MATERIAL,
                  truncation_floor(seeded, loading) + 2, wide))
    cases.append(("ellipse a1=0.999", HARD_SHAPES["ellipse a1=0.999"], FIG_LOADING, FIG_MATERIAL,
                  8, wide))
    cases.append(("square 63", square_map(16), FIG_LOADING, FIG_MATERIAL, 64, wide))
    return cases


class TestCertifiedInterior:
    @pytest.mark.parametrize("case", _certified_cases(), ids=lambda c: c[0])
    def test_every_array_matches_newton_on_every_point(self, monkeypatch, case):
        _, mapping, loading, mat, n, spec = case
        table = build_faber(mapping, required_table_order(mapping, n))
        sol = solve_full(mapping, loading, mat, n, table=table)
        invert, received = ExteriorMap.invert, []

        def counting_invert(self, z, *args, **kwargs):
            received.append(len(z))
            return invert(self, z, *args, **kwargs)

        monkeypatch.setattr(ExteriorMap, "invert", counting_invert)
        grid = field_grid(sol, table, mapping, mat, loading, spec)
        _certify_nothing(monkeypatch)
        reference = field_grid(sol, table, mapping, mat, loading, spec)
        certified = grid.z.size - received[0]  # at least half the interior skips Newton
        assert 2 * certified >= (grid.region == INTERIOR).sum() > 0
        assert received[-1] == grid.z.size
        for name in ("z", "w", "region", "u0", "S", "u", "ambiguous"):
            got, want = getattr(grid, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # Newton on every point leaves 50 of the ellipse's and 49 of the square's
        assert grid.unconverged == 0

    def test_margin_holds_the_sagitta_of_a_level_chord(self):
        # rotate w + 0.3/w**3 until the 256-gon's edge 64 -> 65 on its concave top side is
        # level: the arc dips below that chord, and the point halfway between the two lies
        # outside the curve but inside the polygon, and outside the edge's bounding box
        def kept_polygon(phi):
            mapping = ExteriorMap((0.0, 0.0, 0.0, 0.3 * np.exp(4j * phi)))
            return mapping, mapping.boundary_samples(256)[1]

        lo, hi = np.pi / 4, np.pi / 4 + np.pi / 256
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.diff(kept_polygon(mid)[1][64:66].imag)[0] > 0 else (lo, mid)
        mapping, poly = kept_polygon(lo)
        chord = 0.5 * (poly[64] + poly[65])
        z = 0.5 * (chord + mapping.boundary_point(2 * np.pi * 64.5 / 256))
        assert abs(poly[65].imag - poly[64].imag) < 1e-12 and z.imag < chord.imag - 5e-5
        assert fields._enclosed(np.array([z.real]), np.array([z.imag]), poly, 1e-9)[0, 0]
        mat = Material.from_lame(1.0, 1.0)
        table = build_faber(mapping, required_table_order(mapping, 8))
        sol = solve_full(mapping, FIG_LOADING, mat, 8, table=table)
        grid = field_grid(sol, table, mapping, mat, FIG_LOADING,
                          GridSpec(z.real, z.real + 1.0, z.imag, z.imag + 1.0, 2, 2))
        assert grid.z[0, 0] == z and grid.region[0, 0] == EXTERIOR

    def test_grid_inside_the_inclusion_runs_no_newton(self, monkeypatch):
        mapping, mat, loading, table, sol = solved_figure("fig1", 16)
        spec = GridSpec(-0.3, 0.3, -0.2, 0.2, 4, 3)
        grid = field_grid(sol, table, mapping, mat, loading, spec)
        _certify_nothing(monkeypatch)
        reference = field_grid(sol, table, mapping, mat, loading, spec)
        assert (grid.region == INTERIOR).all() and grid.unconverged == 0
        for name in ("w", "region", "u0", "S", "u"):
            assert getattr(grid, name).tobytes() == getattr(reference, name).tobytes(), name

    def test_scanline_matches_per_edge_parity(self):
        xs, ys = np.linspace(-2.0, 2.0, 41), np.linspace(-2.0, 2.0, 45)
        Z = xs[None, :] + 1j * ys[:, None]
        for poly in _scanline_polygons(xs, ys):
            got = fields._enclosed(xs, ys, poly)
            assert got.shape == Z.shape
            np.testing.assert_array_equal(got, _crossing_parity(Z, poly))

    def test_margin_leaves_out_points_near_an_edge(self):
        xs, ys = np.linspace(-2.0, 2.0, 41), np.linspace(-2.0, 2.0, 45)
        Z = xs[None, :] + 1j * ys[:, None]
        for poly in _scanline_polygons(xs, ys):
            for margin in (1e-9, 0.05, 0.3):
                got = fields._enclosed(xs, ys, poly, margin)
                a, b = poly[:, None, None], np.roll(poly, -1)[:, None, None]
                near = ((Z.real >= np.minimum(a.real, b.real) - margin)
                        & (Z.real < np.maximum(a.real, b.real) + margin)
                        & (Z.imag >= np.minimum(a.imag, b.imag) - margin)
                        & (Z.imag < np.maximum(a.imag, b.imag) + margin)).any(axis=0)
                np.testing.assert_array_equal(got, _crossing_parity(Z, poly) & ~near)
                # so every point kept is at least the margin from every edge
                t = np.clip(((Z - a) * np.conj(b - a)).real / np.maximum(abs(b - a) ** 2, 1e-300),
                            0.0, 1.0)
                assert (abs(Z - (a + t * (b - a))).min(axis=0)[got] >= margin).all()


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
            # a 17-digit tie, the %g switch points, and outside the fast range
            ("u0", (0, 2), complex(1.0 + 2.0**-17, 9.9999999999999999e16)),
            ("S", (0, 3), complex(np.nextafter(1e-5, 0), 1e-250)),
            ("u", (1, 2), complex(-nan, np.nextafter(1e-4, 1))),
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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2000), (2000, 1), (37, 41)])
    def test_repeated_values_keep_their_bits(self, tmp_path, shape):
        # x, y and w drawn from a few values in no tensor pattern, with -0.0
        # and 0.0, NaNs of both signs and a NaN payload among them; 2000
        # lines are more than one chunk
        payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
        pool = np.array([0.0, -0.0, np.nan, -np.nan, payload, 1.5, -1.5, 1e-300, 2.0 / 3.0])
        rng = np.random.default_rng(7)
        grid = _hand_grid(rng, *shape)
        for a in (grid.z, grid.w):
            a.real[...], a.imag[...] = rng.choice(pool, shape), rng.choice(pool, shape)
        write_field_csv(grid, tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().split("\n")[:-1]
        assert lines == _reference_csv(grid)
        if len(lines) > 100:
            cells = {c for line in lines[1:] for c in line.split(",")[:4]}
            assert {"0", "-0", "nan", "1.5", "-1.5"} <= cells


def _g17_ties(rng, count):
    # x = m 2**-(j+1) with m odd and 10**(16-j) <= x < 10**(17-j): x 10**j
    # is m 5**j / 2, so the 18th significant digit of x is an exact 5
    ties = []
    for j in range(1, 22):
        lo = -(-(2 ** (j + 1) * 10**16) // 10**j)
        hi = min(2**53, 2 ** (j + 1) * 10**17 // 10**j)
        m = 2 * rng.integers(lo // 2, (hi - 1) // 2, size=count) + 1
        ties.append(m.astype(float) * 2.0 ** -(j + 1))
    return np.concatenate(ties)


def _g17_cases(count):
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    powers = 10.0 ** np.arange(-30, 31)
    edges = np.array([1e-4, 1e-5, 1e16, 1e17, 1e-200, 1e200, 1e-250, 9.9999999999999999e16])
    points = np.concatenate([powers, edges])
    special = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.797e308, np.inf, np.nan])
    values = np.concatenate([
        special, points, np.nextafter(points, 0), np.nextafter(points, np.inf),
        _g17_ties(rng, 50),
    ])
    return np.concatenate([bits, values, -values])


def _assert_g17_matches(tmp_path, values, plus=False):
    # the writer's own bytes, its layout and NUL compaction included, against Python's %
    bad = g17_oracle.mismatches(values, plus, tmp_path / "g17.csv")
    assert bad.size == 0, [(values[i], g17_oracle.expected_lines(values[i : i + 1], plus))
                           for i in bad[:5]]


class TestG17Text:
    def test_matches_percent_format(self, tmp_path):
        _assert_g17_matches(tmp_path, _g17_cases(200_000))

    def test_plus_signs_by_the_sign_bit(self, tmp_path):
        values = _g17_cases(20_000)
        _assert_g17_matches(tmp_path, np.concatenate([values, [-0.0, -np.nan, -np.inf]]),
                            plus=True)

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_exact_when_log10_is_one_ulp_off(self, tmp_path, monkeypatch, toward):
        # log10 kernels may round differently next to a power of ten
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
        powers = np.array([float(f"1e{p}") for p in range(-200, 201)])
        _assert_g17_matches(tmp_path, np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]))

    def test_high_degree_monomial_dump(self, tmp_path):
        # the Faber-table dump whose values most often move their dot
        from test_faber import _CUT_CASES

        (M, N), seed = min(_CUT_CASES.items())
        mp = random_univalent_map(np.random.default_rng(seed), M, margin=0.99)
        values = build_faber(mp, N).monomial.view(float).ravel()
        k = np.floor(np.log10(np.abs(values), where=values != 0, out=np.zeros_like(values)))
        moves = (values != 0) & (k >= 1) & (k <= 16)
        assert moves.mean() > 0.25
        # then a chunk of lines in which no value moves its dot, one in which
        # no text changes after its digits are laid out either (no cut, no move)
        step = csvtext._CSV_CHUNK_VALUES // 2
        last = np.array([("%.16e" % x).split("e")[0][-1] for x in values.tolist()])
        still = values[~moves]
        fixed = values[~moves & (k <= 0) & (last != "0")]
        values = np.concatenate([np.resize(values, -(-len(values) // step) * step),
                                 np.resize(still, step), np.resize(fixed, step)])
        assert len(values) > 3 * step and len(still) > step // 2 and len(fixed) > step // 2
        _assert_g17_matches(tmp_path, values, plus=True)

    def test_ties_have_18_digits_ending_in_5(self):
        for x in _g17_ties(np.random.default_rng(1), 3).tolist():
            digits = ("%.40e" % x).split("e")[0].replace(".", "").rstrip("0")
            assert len(digits) == 18 and digits.endswith("5"), x


def _digits(text):
    """The significant digits of a '%.17g' text in fixed notation, less trailing zeros."""
    assert "e" not in text, text
    return text.lstrip("-").replace(".", "").strip("0")


def _layout_values():
    """Doubles whose '%.17g' text has each fixed layout k = -4 .. 16 and s = 1 .. 17 digits.

    The first double nearest to m 10**(k + 1 - s), for s-digit m not
    ending in 0, whose text shows m.  Integers and dyadic m 2**-j (j
    decimal places, the last a 5) are exact; the others need the
    17-digit rounding to give m back.
    """
    values = {}
    for k in range(-4, 17):
        for s in range(1, 18):
            scale = Fraction(10) ** (k + 1 - s)
            values[k, s] = next(x for m in range(10 ** (s - 1), 10**s) if m % 10
                                for x in [float(m * scale)] if _digits("%.17g" % x) == str(m))
    return values


class TestWriterLayouts:
    ROW = "%.17g%+.17gj,%s,%.17g%+.17gj\n"  # two number runs around a text cell
    TEXTS = np.array([b"", b"a", b"text"])

    @staticmethod
    def _cell(spec, x):
        if spec == "%.17g":
            return "%.17g" % x if np.isfinite(x) else "nan"
        return ("-" if np.signbit(x) else "+") + ("%.17g" % abs(x) if np.isfinite(x) else "nan")

    def test_every_layout_matches_percent_format(self, tmp_path):
        sweep = _layout_values()
        for (k, s), x in sweep.items():
            assert len(_digits("%.17g" % x)) == s and math.floor(math.log10(x)) == k, (k, s, x)
        powers = np.array([float(f"1e{p}") for p in range(-300, 301, 7)])
        values = np.concatenate([
            list(sweep.values()), powers, np.nextafter(powers, 0), 2.0 ** np.arange(-1074, 1024, 9),
            [1e22, 1e-100, 1.5e-7, 2.5e300, 1.25e17, 5e-324, 1e200, 1e201],
        ])
        values = np.concatenate([values, -values])
        exps = {len(t.split("e")[1]) for t in ("%.17g" % x for x in values) if "e" in t}
        assert exps == {3, 4}  # two- and three-digit exponents
        step = max(1, csvtext._CSV_CHUNK_VALUES // 5)
        # a first chunk of mostly zeros, then more than a chunk with none
        sparse = np.zeros(4 * step)
        sparse[:: 4 * step // len(values)][: len(values)] = values
        sparse[1:8] = [-0.0, np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
        numbers = np.concatenate([sparse, np.resize(values, 4 * step + 28)]).reshape(-1, 4)
        assert np.count_nonzero(numbers[:step]) < numbers[:step].size / 4
        assert np.all(numbers[step:] != 0)
        codes = np.arange(len(numbers)) % len(self.TEXTS)
        csvtext.write_csv(tmp_path / "f.csv", "h\n", self.ROW, numbers, [(self.TEXTS, codes)])
        specs = ["%.17g", "%+.17g", "%.17g", "%+.17g"]
        cells = [[self._cell(f, x) for f, x in zip(specs, row)] for row in numbers.tolist()]
        lines = ["h\n"] + ["%s%sj,%s,%s%sj\n" % (a, b, self.TEXTS[c].decode(), d, e)
                           for (a, b, d, e), c in zip(cells, codes.tolist())]
        got = (tmp_path / "f.csv").read_text().splitlines(keepends=True)
        assert len(got) == len(lines)
        bad = [(i, a, b) for i, (a, b) in enumerate(zip(got, lines)) if a != b]
        assert not bad, bad[:5]


class TestEvalU0FarField:
    def test_u0_dominates_far_away(self):
        mapping, mat, loading, table, sol = solved_figure("fig2", 16)
        w = 300.0 * np.exp(1.1j)
        smp = displacement(sol, table, mapping, mat, loading, w)
        u0 = eval_u0(loading, table, mat, smp.z)
        assert abs(smp.u - u0) / abs(u0) < 1e-3


def _exact_sum(row, u):
    """sum_k row[k] u**k, exact, as Fractions (re, im).

    Every double is an integer times 2**-1074, and u = (Ur + i Ui) 2**-s,
    so Horner runs over Gaussian integers: fast for u of few bits.
    """
    ur, ui = Fraction(u.real), Fraction(u.imag)
    s = max(ur.denominator, ui.denominator).bit_length() - 1
    Ur, Ui = int(ur * 2**s), int(ui * 2**s)

    def ints(x):
        num, den = x.as_integer_ratio()
        return num * (2**1074 // den)

    Ar = Ai = 0
    for j, c in enumerate(row[::-1].tolist()):
        Ar, Ai = Ar * Ur - Ai * Ui, Ar * Ui + Ai * Ur
        Ar += ints(c.real) << (s * j)
        Ai += ints(c.imag) << (s * j)
    den = 2 ** (1074 + s * (len(row) - 1))
    return Fraction(Ar, den), Fraction(Ai, den)


def _u_rows(sol, table, mapping, loading):
    """The kept u rows of S and of u0, as ``_exterior_field`` sums them."""
    return _S_rows(sol, table, mapping)[0], _u0_rows(loading, table)[0]


def _chop_cases():
    cases = {name: (mp, 30) for name, mp in HARD_SHAPES.items()}
    for M, N in ((12, 145), (24, 425)):
        mp = random_univalent_map(np.random.default_rng(1000 * M + N), M, margin=0.99)
        cases[f"seeded ({M}, {N})"] = (mp, N - 1 - 2 * M)  # degree p, table order N
    return cases


_CHOP_CASES = _chop_cases()


class TestChoppedRows:
    """The u rows of S and u0 are cut where their tail is below the sum's rounding bound."""

    #: u = 1/w at |w| >= 1, two on |u| = 1 where the tail is largest;
    #: each has few bits, so the exact sums stay small integers
    U = (1.0 + 0j, 1j, -0.75 + 0.5j)

    @pytest.mark.parametrize("name", sorted(_CHOP_CASES))
    def test_within_the_rounding_bound_of_the_whole_rows(self, name, monkeypatch):
        mp, degree = _CHOP_CASES[name]
        table, sol = _solved(mp, degree, 7)
        loading = random_loading(np.random.default_rng(7), degree)
        kept = _u_rows(sol, table, mp, loading)
        # the rows as they were before the cut: the whole canvas, no chop
        whole_table = build_faber(mp, table.order)
        vars(whole_table)["_grunsky_wide"] = _grunsky_wide(mp, table.order)
        monkeypatch.setattr(fields, "_chop_width", lambda c, weight=1.0: c.shape[1])
        whole = _u_rows(sol, whole_table, mp, loading)
        assert whole[1].shape[1] == degree * mp.order + 2
        eps = np.finfo(float).eps
        for cut, full in zip(kept, whole):
            assert cut.shape[1] <= full.shape[1]
            for r in range(len(full)):
                bound = Fraction(eps * np.abs(full[r]).sum()) ** 2
                for u in self.U:
                    # the chop aims at a sixteenth of this bound (faber._CHOP)
                    (a, b), (c, d) = _exact_sum(cut[r], u), _exact_sum(full[r], u)
                    assert (a - c) ** 2 + (b - d) ** 2 <= bound, (r, u)

    def test_width_on_the_high_degree_config(self, tmp_path, monkeypatch):
        # map order 12, loading degree 120, truncation 132: the whole rows
        # are 1718 (S) and 1442 (u0) terms wide, the kept ones about 190
        monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
        inputs = importlib.import_module("inputs")
        job = load_job(str(inputs.build("high_degree_cli", 1, ROOT, tmp_path).cli_cases[0].config))
        mp, loading, n = job.mapping, job.loading, job.truncation_n
        table = build_faber(mp, required_table_order(mp, n))
        sol = solve_full(mp, loading, job.material, n, table=table)
        S, u0 = _u_rows(sol, table, mp, loading)
        assert S.shape[1] <= 256 and u0.shape[1] <= 256, (S.shape, u0.shape)


class TestCutCanvasMemory:
    def test_field_grid_on_a_large_case(self):
        # the whole canvas of this (24, 425) table is 426 x 10201 complex,
        # 69.5 MB, and field_grid peaked at 77 MB with it.  Cut, it keeps
        # 426 x 975 columns, a view of the 426 x 2577 buffer (17.6 MB) of
        # the pass that finds the cut, beside which the chop test holds
        # 426 x 1701 floats (5.8 MB); field_grid peaks at about 24 MB
        mp = random_univalent_map(np.random.default_rng(24425), 24, margin=0.99)
        table, sol = _solved(mp, 376, 11)
        loading = random_loading(np.random.default_rng(11), 376)
        assert table.order == 425
        tracemalloc.start()
        try:
            grid = field_grid(sol, table, mp, FIG_MATERIAL, loading, GridSpec(-3, 3, -3, 3, 9, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(grid.u))
        assert peak < 32e6, peak / 1e6

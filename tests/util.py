"""Shared construction helpers for the test suite."""

import numpy as np

from faberelast import (
    ExteriorMap,
    FarFieldLoading,
    Material,
    build_faber,
    required_table_order,
    solve_full,
)
from faberelast.conformal import random_univalent_map

FIG_MATERIAL = Material.from_figure_params(0.5, 0.3)
FIG_LOADING = FarFieldLoading([0.0, 1.0], [0.0, 1.0])

FIG_MAPS = {
    "fig1": ExteriorMap((0.0, 0.1 + 0.1j)),
    "fig2": ExteriorMap((0.0, 0.1 + 0.1j, 0.1 + 0.1j)),
    "fig3": ExteriorMap((0.0, 0.1 + 0.1j, 0.1 + 0.1j, 0.1 + 0.1j)),
}

#: shapes outside the sampler's sum k|a_k| <= margin < 1 condition
HARD_SHAPES = {
    "ellipse a1=0.99": ExteriorMap((0.0, 0.99)),
    "ellipse a1=0.999": ExteriorMap((0.0, 0.999)),
    "hypocycloid a2=0.49": ExteriorMap((0.0, 0.0, 0.49)),
    "truncated square": ExteriorMap(
        (0.0, 0.0, 0.0, -1 / 6, 0.0, 0.0, 0.0, 1 / 56, 0.0, 0.0, 0.0, -1 / 176)
    ),
}


def square_map(J: int) -> ExteriorMap:
    """The exterior Schwarz-Christoffel map of a square, Psi' = (1 + w**-4)**(1/2),
    cut at a_{4j-1} = -binom(1/2, j)/(4j - 1) for j <= J: order 4J - 1."""
    a, binom = [0.0] * (4 * J), 1.0
    for j in range(1, J + 1):
        binom *= (1.5 - j) / j  # binom(1/2, j)
        a[4 * j - 1] = -binom / (4 * j - 1)
    return ExteriorMap(tuple(a))


def solved_figure(name: str, n: int = 48):
    """(mapping, material, loading, table, solution) for a figure config."""
    mapping = FIG_MAPS[name]
    table = build_faber(mapping, required_table_order(mapping, n))
    sol = solve_full(mapping, FIG_LOADING, FIG_MATERIAL, n, table=table)
    return mapping, FIG_MATERIAL, FIG_LOADING, table, sol


def count_univalence_checks(monkeypatch) -> list:
    """Patch ExteriorMap.validate_univalence to append each map it checks
    to the returned list."""
    checked = []
    original = ExteriorMap.validate_univalence

    def counting(self, *args, **kwargs):
        checked.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExteriorMap, "validate_univalence", counting)
    return checked


def ellipse_faber_closed_form(m: int, z, a: complex):
    """Closed-form Faber polynomial of the ellipse map w + a/w."""
    z = np.asarray(z, dtype=complex)
    if m == 0:
        return np.ones_like(z)
    root = np.sqrt(z * z - 4.0 * a)
    return ((z + root) ** m + (z - root) ** m) / 2.0**m


def plain_horner(coef, x):
    """sum_k coef[r, k] x**k for each row r at the 1-D points x, by plain Horner."""
    acc = np.zeros((coef.shape[0], len(x)), dtype=complex)
    for c in coef.T[::-1]:
        acc = acc * x + c[:, None]
    return acc


def frozen_u_series(mapping, w, r: int):
    """Psi(w) - w (r = 0) or Psi'(w) - 1 (r = 1), by Horner in u = 1/w.

    A frozen copy of the loop the map's evaluators once ran, built from
    the coefficients alone: the row is a_0 .. a_M or (0, 0, -a_1, ..,
    -M a_M), a zero row is not summed, and a summed row is inf at w = 0.
    """
    a = np.asarray(mapping.coefficients, dtype=complex)
    if r == 1:
        a = np.concatenate(([0.0, 0.0], -np.arange(1, len(a)) * a[1:])) if len(a) > 1 else a[:0]
    w = np.asarray(w, dtype=complex)
    wa = np.atleast_1d(w)
    nonzero = wa != 0
    u = np.divide(1.0, wa, out=np.zeros_like(wa), where=nonzero)
    acc = np.zeros_like(wa)
    for c in a[::-1]:
        acc = acc * u + c
    if len(a):
        acc[~nonzero] = np.inf
    return acc.reshape(w.shape)


def frozen_eval(mapping, w):
    """Psi(w) from ``frozen_u_series``."""
    return np.asarray(w, dtype=complex) + frozen_u_series(mapping, w, 0)


def frozen_derivative(mapping, w):
    """Psi'(w) from ``frozen_u_series``."""
    return 1.0 + frozen_u_series(mapping, w, 1)


def random_loading(rng: np.random.Generator, degree: int) -> FarFieldLoading:
    A = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    B = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return FarFieldLoading(A, B)


__all__ = [
    "FIG_MATERIAL",
    "FIG_LOADING",
    "FIG_MAPS",
    "HARD_SHAPES",
    "square_map",
    "solved_figure",
    "count_univalence_checks",
    "ellipse_faber_closed_form",
    "plain_horner",
    "frozen_u_series",
    "frozen_eval",
    "frozen_derivative",
    "random_loading",
    "random_univalent_map",
]

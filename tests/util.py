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


def random_loading(rng: np.random.Generator, degree: int) -> FarFieldLoading:
    A = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    B = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return FarFieldLoading(A, B)


__all__ = [
    "FIG_MATERIAL",
    "FIG_LOADING",
    "FIG_MAPS",
    "HARD_SHAPES",
    "solved_figure",
    "count_univalence_checks",
    "ellipse_faber_closed_form",
    "random_loading",
    "random_univalent_map",
]

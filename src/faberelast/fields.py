"""Single-layer potential and total displacement from a density solution.

Interior and exterior evaluation use two different but matching series.
Inside the inclusion everything is a combination of Faber polynomials
and their derivatives at z.  Outside, each term is rewritten through
the exact finite Grunsky rows of the map,

    F_m(Psi(w)) - w**m            = sum_{k=1}^{mM} c_{m,k} w**-k,
    Ftilde_m(Psi(w)) - G_m(w)     = -(1/(m Psi'(w))) sum_k k c_{m,k} w**-k-1,

so only decaying powers of w are ever summed.  That removes the
catastrophic cancellation a literal evaluation of F_m(z) - w**m would
hit at large |w| (the two sides grow like |w|**m) and keeps the far
field accurate out to arbitrary radius.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conformal import ExteriorMap
from .errors import DomainError
from .faber import FaberTable, faber_values
from .loading import FarFieldLoading, Material, eval_u0
from .solver import DensitySolution

_BOUNDARY_TOL = 1e-10

REGION_INTERIOR = "interior"
REGION_BOUNDARY = "boundary"
REGION_EXTERIOR = "exterior"


@dataclass(frozen=True)
class FieldSample:
    """Displacement data at one evaluation point."""

    z: complex
    w: complex  # preimage when exterior, NaN otherwise
    region: str
    u0: complex
    S: complex
    u: complex


def single_layer_interior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    z,
):
    """Single-layer value S at z in the closed inclusion."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    za = np.atleast_1d(z)
    n = sol.order
    M = mapping.order
    F, Fp = faber_values(mapping, n + M, za)

    def ftilde(j):
        if j <= 0:
            return 0.0
        return Fp[j] / j

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
    out = 0.5 * twoS
    return complex(out[0]) if scalar else out.reshape(z.shape)


def _tilde_minus_G(table: FaberTable, j: int, u: np.ndarray, inv_dpsi: np.ndarray):
    """Ftilde_j(Psi(w)) - G_j(w) as a decaying series in u = 1/w."""
    if j <= 0:
        return -(u ** (1 - j)) * inv_dpsi
    row = table.grunsky_row(j)
    if len(row) == 0:
        return np.zeros_like(u)
    acc = np.zeros_like(u)
    ks = np.arange(1, len(row) + 1)
    for c in (row * ks)[::-1]:
        acc = acc * u + c
    # acc = sum_k k c_{j,k} u^{k-1}; multiply the two u powers back in
    return -(acc * u * u) * inv_dpsi / j


def _comp_minus_power(table: FaberTable, m: int, u: np.ndarray):
    """F_m(Psi(w)) - w**m = sum_k c_{m,k} u**k."""
    row = table.grunsky_row(m)
    if len(row) == 0:
        return np.zeros_like(u)
    acc = np.zeros_like(u)
    for c in row[::-1]:
        acc = acc * u + c
    return acc * u


def single_layer_exterior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    w,
):
    """Single-layer value S at z = Psi(w), |w| >= 1."""
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    wa = np.atleast_1d(w)
    if np.any(np.abs(wa) < 1.0 - 1e-12):
        raise DomainError("exterior evaluation needs |w| >= 1")
    n = sol.order
    M = mapping.order
    if table.order < n + M:
        raise ValueError("Faber table too small for the solution order")
    u = 1.0 / wa
    psi = mapping.eval(wa)
    inv_dpsi = 1.0 / mapping.derivative(wa)

    tilde_cache: dict = {}

    def tg(j):
        if j not in tilde_cache:
            tilde_cache[j] = _tilde_minus_G(table, j, u, inv_dpsi)
        return tilde_cache[j]

    v1 = np.zeros_like(wa)
    v2 = np.zeros_like(wa)
    v3 = np.zeros_like(wa)
    for m in range(1, n + 1):
        sm = sol.s[m - 1]
        tm = sol.t[m - 1]
        if sm == 0 and tm == 0:
            continue
        um = u**m
        if sm != 0:
            v1 += (sm / m) * (np.conj(_comp_minus_power(table, m, u)) + um)
            v2 += -sm * (u * um) * inv_dpsi  # -G_{-m}
        if tm != 0:
            v1 += (tm / m) * (_comp_minus_power(table, m, u) + np.conj(um))
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
    out = 0.5 * twoS
    return complex(out[0]) if scalar else out.reshape(w.shape)


def displacement(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    loading: FarFieldLoading,
    w: complex,
) -> FieldSample:
    """Total displacement at the preimage point w, |w| >= 1."""
    w = complex(w)
    r = abs(w)
    if r < 1.0 - 1e-12:
        raise DomainError("displacement is defined for |w| >= 1")
    z = complex(mapping._eval_raw(np.asarray(w)))
    u0 = complex(eval_u0(loading, table, mat, z))
    if r <= 1.0 + _BOUNDARY_TOL:
        S = complex(single_layer_interior(sol, table, mapping, mat, z))
        return FieldSample(
            z=z,
            w=w,
            region=REGION_BOUNDARY,
            u0=u0,
            S=S,
            u=complex(sol.rigid_motion(z)),
        )
    S = complex(single_layer_exterior(sol, table, mapping, mat, w))
    return FieldSample(z=z, w=w, region=REGION_EXTERIOR, u0=u0, S=S, u=u0 + S)


def _points_in_polygon(z: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd crossing test against a closed polyline of complex vertices."""
    x, y = z.real, z.imag
    px, py = poly.real, poly.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    inside = np.zeros(z.shape, dtype=bool)
    for i in range(len(poly)):
        cond = (py[i] > y) != (qy[i] > y)
        denom = qy[i] - py[i]
        if denom == 0:
            continue
        xin = px[i] + (y - py[i]) * (qx[i] - px[i]) / denom
        inside ^= cond & (x < xin)
    return inside


@dataclass(frozen=True)
class GridSpec:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("grid ranges must be increasing")


def field_grid(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    loading: FarFieldLoading,
    grid: GridSpec,
) -> list:
    """Evaluate the field on a rectangular grid, row-major in y then x.

    Each point is classified by Newton inversion of the map: a preimage
    with |w| > 1 means exterior, |w| < 1 (or a point the iteration
    cannot place that the boundary polygon encloses) means interior,
    and anything within tolerance of |w| = 1 is boundary.  Interior and
    boundary samples carry the rigid-motion displacement of the
    inclusion; their S column holds the interior series value.
    Rows may be processed in parallel (FABERELAST_THREADS), assembly is
    by index and deterministic.
    """
    xs = np.linspace(grid.xmin, grid.xmax, grid.nx)
    ys = np.linspace(grid.ymin, grid.ymax, grid.ny)
    Z = (xs[None, :] + 1j * ys[:, None]).ravel()

    wv, converged = mapping.invert(Z)
    radii = np.abs(wv)
    exterior = converged & (radii > 1.0 + _BOUNDARY_TOL)
    boundary = converged & (np.abs(radii - 1.0) <= _BOUNDARY_TOL)
    interior = converged & (radii < 1.0 - _BOUNDARY_TOL)
    undecided = ~converged
    ambiguous = np.zeros_like(undecided)
    if np.any(undecided):
        poly = mapping.boundary_point(
            np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        )
        inside = _points_in_polygon(Z[undecided], poly)
        idx = np.nonzero(undecided)[0]
        interior = interior.copy()
        boundary = boundary.copy()
        interior[idx[inside]] = True
        boundary[idx[~inside]] = True  # ambiguous: report as boundary
        ambiguous[idx[~inside]] = True

    u0 = np.asarray(eval_u0(loading, table, mat, Z))
    S = np.zeros_like(Z)
    u = np.zeros_like(Z)

    inner_mask = interior | boundary
    n_threads = max(1, int(os.environ.get("FABERELAST_THREADS", "1") or "1"))

    def eval_exterior(idx):
        S[idx] = single_layer_exterior(sol, table, mapping, mat, wv[idx])
        u[idx] = u0[idx] + S[idx]

    def eval_inner(idx):
        S[idx] = single_layer_interior(sol, table, mapping, mat, Z[idx])
        u[idx] = sol.rigid_motion(Z[idx])

    jobs = []
    for mask, fn in ((exterior, eval_exterior), (inner_mask, eval_inner)):
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            continue
        for chunk in np.array_split(idx, max(1, min(n_threads, len(idx)))):
            jobs.append((fn, chunk))
    if n_threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(lambda job: job[0](job[1]), jobs))
    else:
        for fn, chunk in jobs:
            fn(chunk)

    samples = []
    nan = float("nan")
    for i, z in enumerate(Z):
        if exterior[i]:
            region, wout = REGION_EXTERIOR, complex(wv[i])
        elif boundary[i]:
            wout = complex(nan, nan) if ambiguous[i] else complex(wv[i])
            region = REGION_BOUNDARY
        else:
            region, wout = REGION_INTERIOR, complex(nan, nan)
        samples.append(
            FieldSample(
                z=complex(z),
                w=wout,
                region=region,
                u0=complex(u0[i]),
                S=complex(S[i]),
                u=complex(u[i]),
            )
        )
    return samples


def write_field_csv(samples, path) -> None:
    """Dump grid samples with 17-significant-digit round-trip format."""
    fmt = "%.17g"

    def num(x: float) -> str:
        return fmt % x if math.isfinite(x) else "nan"

    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,re_w,im_w,region,re_u0,im_u0,re_S,im_S,re_u,im_u\n")
        for smp in samples:
            row = [
                num(smp.z.real),
                num(smp.z.imag),
                num(smp.w.real),
                num(smp.w.imag),
                smp.region,
                num(smp.u0.real),
                num(smp.u0.imag),
                num(smp.S.real),
                num(smp.S.imag),
                num(smp.u.real),
                num(smp.u.imag),
            ]
            fh.write(",".join(row) + "\n")

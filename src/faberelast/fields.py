"""Single-layer potential and total displacement from a density solution.

Every term of the single layer is linear in the density coefficients
(s_m, t_m), so each evaluator first gathers them into a few coefficient
vectors and then sums those at all points in one pass.  With the map
Psi(w) = w + sum_{k=0}^M a_k w**-k, a_{-1} = 1 and n the highest mode
with s_n or t_n nonzero, both share the weights

    W_j = sum_m s_m conj(a_{j+m}) + t_m conj(a_{j-m}),  j = -n-1 .. n+M.

Inside the inclusion the field is a Kolosov-Muskhelishvili displacement
of two Faber series, as u0 is, and ``loading._km_displacement`` sums
both from one table of Faber values (``_interior_field``).  With
alpha1 = kappa alpha2 (see Material),

    S = -(alpha2/2) (kappa phi(z) - z conj(phi'(z)) - conj(psi(z))),
    phi = sum_m (t_m/m) F_m,
    psi = - kappa sum_m (conj(s_m)/m) F_m - sum_{j>=1} (W_j/j) F_j',

and every derivative there is re-expanded in F_0 .. F_{n+M-1} through
the coefficients d of 1/Psi' (see faber), so only F itself is evaluated.

Outside, each term is rewritten through the Grunsky rows of the map,
as far as the table's canvas keeps them (see faber), with u = 1/w,

    F_m(Psi(w)) - w**m          = sum_{k=1}^{mM} c_{m,k} u**k,
    F_m'(Psi(w))/m - G_m(w)     = -(1/(m Psi'(w))) sum_k k c_{m,k} u**(k+1),

so the field is four polynomials in u, the Kolosov-Muskhelishvili
potentials in the w-plane:

    P1 = sum_m (conj(s_m)/m) sum_k c_{m,k} u**k + (conj(t_m)/m) u**m,
    P2 = sum_m (t_m/m) sum_k c_{m,k} u**k + (s_m/m) u**m,
    P3 = - sum_m s_m u**(m+1) - sum_m (t_m/m) sum_k k c_{m,k} u**(k+1),
    P4 = sum_{j>=1} (W_j/j) sum_k k c_{j,k} u**(k+1) + sum_{j<=0} W_j u**(1-j),

    2S = - alpha1 (conj(P1) + P2) + alpha2 Psi conj(P3/Psi')
         + alpha2 conj(P4/Psi').

Only decaying powers of w are summed for S.  That removes the
catastrophic cancellation a literal evaluation of F_m(z) - w**m would
hit at large |w| (the two sides grow like |w|**m) and keeps the far
field accurate out to arbitrary radius.

The background field u0 = (kappa h - z conj(h') - conj(l))/2 of
loading goes through the same rows outside (``_exterior_field``): with
F_m'(Psi(w)) Psi'(w) = m w**(m-1) - sum_k k c_{m,k} u**(k+1), each of h,
h' Psi' and l is a polynomial in w (from A_m, B_m alone) plus one in u
(from the Grunsky rows), so no Faber recurrence runs there.  A probe
(``displacement``) is given w, so z = Psi(w) holds exactly.  A grid point
is given z, and Newton inversion stops within 1e-12 max(1, |z|) of it,
so ``field_grid`` polishes each exterior preimage with one more Newton
step from the map rows, which takes |Psi(w) - z| to rounding, and then
sums S and u0 at it as a probe does.  Interior and boundary points,
and the boundary branch of ``displacement``, take S and u0 from one
``_interior_field`` call, so the Faber recurrence runs once per point
set and only there.

The rows do not depend on w or on the Material, so each set is built
once, from one product with the Grunsky rows, and kept: the (4, K) rows
of P1..P4 on the DensitySolution, and the rows of u0 (h, l and h' Psi'
in u, and their growing parts in w) on the FarFieldLoading.  Each keeps
one (table, rows) pair, the table compared by identity; another table
object rebuilds the rows and replaces the pair.  The table and domain
checks still run on every call; the loading-degree check runs where the
u0 rows are built, as rows kept for a table have passed it.  Psi - w and
Psi' - 1 are two more rows in u, kept on the map (``ExteriorMap._u_rows``).

The S and u0 rows in u are chopped where they are built: each set is
cut at the width past which every row's tail is below _CHOP = eps/16 of
the row's l1 norm (``faber._chop_width``).  At |u| <= 1 the dropped terms add at
most that, a sixteenth of the rounding bound eps times l1 that the sum
of the row already carries: the tail chop of Aurentz and Trefethen
("Chopping a Chebyshev series", ACM TOMS 43, 2017), held to the sum's
own rounding.  The canvas behind them is cut by the same test, on every
Grunsky row (see faber).  On the high-degree benchmark config the S
rows go from 1718 terms to 180 and the u0 rows from 1442 to 197.

Every row, in u or in w, is summed by the one series kernel of the map
(``conformal._blocked_horner``, Paterson-Stockmeyer, plain Horner for
rows of at most 32 terms).  ``_exterior_S`` and ``_exterior_field`` call
it through ``conformal._row_sums``, so a single point (a probe) sums the
map, S and u0 rows in u from one power table in u = 1/w, and the growing
rows from one table in w, as ``_row_sums`` describes.  The Newton polish
of ``field_grid`` and the boundary branch of ``displacement`` call the
map's own evaluators.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .conformal import _INSIDE_TOL, ExteriorMap, _row_sums
from .errors import DomainError
from .faber import (FaberTable, _chop_width, _derivative_coefficients, _readonly, _tail,
                    check_table_map)
from .loading import FarFieldLoading, Material, _km_displacement, _u0_potentials
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


#: region codes of a FieldGrid, indices into REGION_LABELS
INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2
REGION_LABELS = (REGION_INTERIOR, REGION_BOUNDARY, REGION_EXTERIOR)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Displacement data on a rectangular grid, as arrays of shape (ny, nx).

    Row r holds the points of the r-th y value, column c those of the
    c-th x value.  ``region`` holds the codes INTERIOR (0), BOUNDARY (1)
    and EXTERIOR (2); ``w`` is the preimage where it is known (exterior
    points and boundary points Newton placed) and NaN elsewhere.
    ``ambiguous`` marks points Newton left unconverged that the boundary
    polygon does not enclose; they are reported as boundary.
    ``unconverged`` counts all points Newton left unconverged.

    The grid is also a sequence of FieldSample in row-major order.
    """

    z: np.ndarray
    w: np.ndarray
    region: np.ndarray
    u0: np.ndarray
    S: np.ndarray
    u: np.ndarray
    ambiguous: np.ndarray
    unconverged: int

    def __len__(self) -> int:
        return self.z.size

    def __getitem__(self, index) -> FieldSample:
        k = range(len(self))[index]
        return FieldSample(
            z=complex(self.z.flat[k]),
            w=complex(self.w.flat[k]),
            region=REGION_LABELS[self.region.flat[k]],
            u0=complex(self.u0.flat[k]),
            S=complex(self.S.flat[k]),
            u=complex(self.u.flat[k]),
        )

    def __iter__(self):
        columns = [a.ravel().tolist() for a in (self.z, self.w, self.u0, self.S, self.u)]
        labels = [REGION_LABELS[c] for c in self.region.ravel().tolist()]
        for z, w, region, u0, S, u in zip(columns[0], columns[1], labels, *columns[2:]):
            yield FieldSample(z=z, w=w, region=region, u0=u0, S=S, u=u)


def _check_table(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap) -> None:
    """Raise ValueError unless ``table`` was built for ``mapping`` and reaches order n + M."""
    check_table_map(mapping, table)
    if table.order < sol.order + mapping.order:
        raise ValueError("Faber table too small for the solution order")


def _weights(sol: DensitySolution, mapping: ExteriorMap) -> tuple:
    """Effective degree n, s_1..s_n, t_1..t_n and the weights W.

    n is the highest mode with s_n or t_n nonzero (1 for a zero
    solution).  W[j + n + 1] = W_j for j = -n-1 .. n+M.
    """
    M = mapping.order
    active = np.flatnonzero((sol.s[: sol.order] != 0) | (sol.t[: sol.order] != 0))
    n = int(active[-1]) + 1 if len(active) else 1
    s, t = sol.s[:n], sol.t[:n]
    conj_a = np.conj(np.concatenate(([1.0], _tail(mapping))))  # a_{-1} = 1, a_0 .. a_M
    W = np.zeros(2 * n + M + 2, dtype=complex)
    W[: n + M + 1] += np.convolve(s[::-1], conj_a)  # s_m conj(a_{j+m})
    W[n + 1 :] += np.convolve(t, conj_a)  # t_m conj(a_{j-m})
    return n, s, t, W


def _kept_rows(owner, table: FaberTable, build) -> tuple:
    """The rows ``build()`` returns, kept in ``owner._rows`` while ``table`` is the same.

    The slot holds one (table, rows) pair, compared by identity; another
    table object rebuilds the rows and replaces the pair.  The rows are
    made read-only.
    """
    slot = owner._rows
    if slot is None or slot[0] is not table:
        rows = build()
        for r in rows:
            r.setflags(write=False)
        slot = (table, rows)
        object.__setattr__(owner, "_rows", slot)
    return slot[1]


def _S_potentials(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap,
                  mat: Material) -> tuple:
    """Faber coefficients (phi, psi) of S inside, as the module docstring writes them."""
    _check_table(sol, table, mapping)
    n, s, t, W = _weights(sol, mapping)
    M = mapping.order
    j = np.arange(1, n + M + 1)
    scale = -0.5 * mat.alpha2
    # psi reaches index n+M-1, past n when M > 1
    phi, psi = np.zeros((2, max(n + 1, n + M)), dtype=complex)
    phi[1 : n + 1] = scale * t / j[:n]
    psi[1 : n + 1] = -mat.kappa * scale * np.conj(s) / j[:n]
    W_over_j = np.concatenate(([0.0], scale * W[n + 2 :] / j))
    psi[: n + M] -= _derivative_coefficients(W_over_j, table.d)
    return phi, psi


def single_layer_interior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    z,
):
    """Single-layer value S at z in the closed inclusion."""
    return _km_displacement([_S_potentials(sol, table, mapping, mat)], table, mat.kappa, z)[0]


def _interior_field(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap,
                    mat: Material, loading: FarFieldLoading, z) -> list:
    """S and u0 at z, a point or an array in the closed inclusion.

    Both are summed from one table of Faber values at z, so the
    recurrence runs once per point set.
    """
    pairs = [_S_potentials(sol, table, mapping, mat), _u0_potentials(loading, table)]
    return _km_displacement(pairs, table, mat.kappa, z)


def _S_rows(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap) -> tuple:
    """The (4, K) rows of P1 .. P4 in u, as a 1-tuple."""
    n, s, t, W = _weights(sol, mapping)
    M = mapping.order
    j = np.arange(1, n + M + 1)
    # powers u**0 .. u**((n+M)M) of the Grunsky rows, as far as the canvas keeps them
    width = min((n + M) * M + 1, table._grunsky_wide.shape[1])
    # P1..P4 by rows; X[r] weights the rows c_{j,k} of F_j(Psi(w)) - w**j
    # (the rows of P3 are those of P2, negated)
    X = np.zeros((3, n + M), dtype=complex)
    X[0, :n] = np.conj(s) / j[:n]
    X[1, :n] = t / j[:n]
    X[2] = W[n + 2 :] / j
    rows = X @ table._grunsky_wide[1 : n + M + 1, :width]
    coef = np.zeros((4, max(width + 1, n + 3)), dtype=complex)
    coef[:2, :width] = rows[:2]
    coef[2:, 1 : width + 1] = rows[1:] * np.arange(width)  # k c_{j,k} at u**(k+1)
    np.negative(coef[2], out=coef[2])
    coef[0, 1 : n + 1] += np.conj(t) / j[:n]
    coef[1, 1 : n + 1] += s / j[:n]
    coef[2, 2 : n + 2] -= s
    coef[3, 1 : n + 3] += W[n + 1 :: -1]  # W_j u**(1-j), j <= 0
    return (coef[:, : max(_chop_width(coef), 1)].copy(),)


def _exterior_S(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap, mat: Material,
                w: np.ndarray, more=()) -> tuple:
    """S, Psi and Psi' at the 1-D points w, |w| >= 1, and the sums in u of the row sets ``more``.

    The map rows, the S rows and ``more`` go through one ``_row_sums``
    pass, so a single point builds one power table in u = 1/w.  The
    caller has run ``_check_table``.
    """
    (coef,) = _kept_rows(sol, table, lambda: _S_rows(sol, table, mapping))
    (dz, ddz), (P1, P2, P3, P4), *sums = _row_sums((mapping._u_rows, coef, *more), 1.0 / w)
    psi, dpsi = w + dz, 1.0 + ddz
    S = 0.5 * (
        -mat.alpha1 * (np.conj(P1) + P2)
        + mat.alpha2 * psi * np.conj(P3 / dpsi)
        + mat.alpha2 * np.conj(P4 / dpsi)
    )
    return S, psi, dpsi, sums


def _u0_rows(loading: FarFieldLoading, table: FaberTable) -> tuple:
    """The (3, K') rows of H, L and h' Psi' in u, and their (3, p+1) rows in w.

    Raises IndexError when the loading degree p exceeds the table order.
    """
    h, l = _u0_potentials(loading, table)
    p = len(h) - 1
    width = min(p * table.mapping.order + 1, table._grunsky_wide.shape[1])
    # decaying parts of h, l and h' Psi' in u; -k c_{m,k} sits at u**(k+1)
    hl = np.stack([h[1:], l[1:]]) @ table._grunsky_wide[1 : p + 1, :width]
    coef = np.zeros((3, width + 1), dtype=complex)
    coef[:2, :width] = hl
    coef[2, 1:] = -np.arange(width) * hl[0]
    # growing parts: polynomials in w, m A_m w**(m-1) for h' Psi'
    grow = np.zeros((3, p + 1), dtype=complex)
    grow[0], grow[1] = h, l
    grow[2, :p] = np.arange(1, p + 1) * h[1:]
    return coef[:, : max(_chop_width(coef), 1)].copy(), grow


def _exterior_field(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap,
                    mat: Material, loading: FarFieldLoading, w: np.ndarray) -> tuple:
    """S, u0 and Psi at the 1-D points w, |w| >= 1, from the kept rows.

    The u0 rows in u go through the ``_exterior_S`` pass, the growing
    rows take one more pass in w.  The table is checked first, so the
    loading keeps rows only for a table that passed.
    """
    _check_table(sol, table, mapping)
    coef, grow = _kept_rows(loading, table, lambda: _u0_rows(loading, table))
    S, psi, dpsi, ((H, L, dH),) = _exterior_S(sol, table, mapping, mat, w, (coef,))
    ((gH, gL, gdH),) = _row_sums((grow,), w)
    u0 = mat.kappa * (H + gH) - psi * np.conj((dH + gdH) / dpsi) - np.conj(L + gL)
    return S, u0, psi


def _check_exterior(w) -> None:
    """DomainError unless every point of w is finite with |w| >= 1.

    A Python complex (a probe) is checked in Python floats and bools, as
    numpy's scalar operations would add about a tenth to a probe's time.
    """
    r = abs(w)
    outside = (r >= 1.0 - _INSIDE_TOL) & (r < np.inf)  # NaN fails both
    if outside is not True and not np.all(outside):
        raise DomainError("exterior evaluation needs finite w with |w| >= 1")


def single_layer_exterior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    w,
):
    """Single-layer value S at z = Psi(w), |w| >= 1."""
    w = np.asarray(w, dtype=complex)
    _check_exterior(w)
    _check_table(sol, table, mapping)
    out = _exterior_S(sol, table, mapping, mat, w.reshape(-1))[0]
    return complex(out[0]) if w.ndim == 0 else out.reshape(w.shape)


def displacement(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    loading: FarFieldLoading,
    w: complex,
) -> FieldSample:
    """Total displacement at the preimage point w, |w| >= 1.

    Raises NonUnivalentMapError when the map fails its univalence check.
    """
    w = complex(w)
    _check_exterior(w)
    mapping.require_univalent()
    if abs(w) <= 1.0 + _BOUNDARY_TOL:
        z = mapping.eval(w)
        S, u0 = _interior_field(sol, table, mapping, mat, loading, z)
        return FieldSample(z=z, w=w, region=REGION_BOUNDARY, u0=u0, S=S,
                           u=complex(sol.rigid_motion(z)))
    wa = np.array([w])
    S, u0, psi = (complex(v[0]) for v in _exterior_field(sol, table, mapping, mat, loading, wa))
    return FieldSample(z=psi, w=w, region=REGION_EXTERIOR, u0=u0, S=S, u=u0 + S)


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
) -> FieldGrid:
    """Evaluate the field on a rectangular grid, row-major in y then x.

    Each point is classified by Newton inversion of the map: a preimage
    with |w| > 1 means exterior, |w| < 1 (or a point the iteration
    cannot place that the boundary polygon encloses) means interior,
    and anything within tolerance of |w| = 1 is boundary.  Interior and
    boundary samples carry the rigid-motion displacement of the
    inclusion; their S column holds the interior series value.

    Each exterior preimage then gets one more Newton step from the map
    rows, which takes |Psi(w) - z| from the inversion tolerance to
    rounding, and S and u0 at it are summed from the rows kept on the
    solution and the loading, as ``displacement`` sums them.
    The other points take S and u0 from one ``_interior_field`` call.
    The result is a FieldGrid of arrays of shape (ny, nx); an exterior
    sample holds the polished w and u = u0 + S.  A map that fails its
    univalence check raises NonUnivalentMapError.
    """
    mapping.require_univalent()
    xs = np.linspace(grid.xmin, grid.xmax, grid.nx)
    ys = np.linspace(grid.ymin, grid.ymax, grid.ny)
    Z = (xs[None, :] + 1j * ys[:, None]).ravel()

    wv, converged = mapping.invert(Z)
    radii = np.abs(wv)
    region = np.full(Z.shape, INTERIOR, dtype=np.int8)
    region[converged & (np.abs(radii - 1.0) <= _BOUNDARY_TOL)] = BOUNDARY
    region[converged & (radii > 1.0 + _BOUNDARY_TOL)] = EXTERIOR
    ambiguous = np.zeros(Z.shape, dtype=bool)
    undecided = np.nonzero(~converged)[0]
    if len(undecided):
        poly = mapping.boundary_samples(1024)[1]
        outside = undecided[~_points_in_polygon(Z[undecided], poly)]
        region[outside] = BOUNDARY  # ambiguous: report as boundary
        ambiguous[outside] = True
    ext, inner = np.flatnonzero(region == EXTERIOR), np.flatnonzero(region != EXTERIOR)
    wv[ext] -= (mapping._eval_raw(wv[ext]) - Z[ext]) / mapping._derivative_raw(wv[ext])
    Se, u0e, _ = _exterior_field(sol, table, mapping, mat, loading, wv[ext])
    w = np.where((region != INTERIOR) & ~ambiguous, wv, complex(np.nan, np.nan))

    u0, S, u = np.empty_like(Z), np.empty_like(Z), np.empty_like(Z)
    S[ext], u0[ext], u[ext] = Se, u0e, u0e + Se
    S[inner], u0[inner] = _interior_field(sol, table, mapping, mat, loading, Z[inner])
    u[inner] = sol.rigid_motion(Z[inner])

    shape = (grid.ny, grid.nx)
    return FieldGrid(
        z=Z.reshape(shape),
        w=w.reshape(shape),
        region=region.reshape(shape),
        u0=u0.reshape(shape),
        S=S.reshape(shape),
        u=u.reshape(shape),
        ambiguous=ambiguous.reshape(shape),
        unconverged=len(undecided),
    )


#: values per chunk of the CSV writer, rounded down to whole lines
_CSV_CHUNK_VALUES = 1 << 14
_CSV_HEADER = "x,y,re_w,im_w,region,re_u0,im_u0,re_S,im_S,re_u,im_u\n"
_CSV_ROW = ",".join(["%s"] * 2 + ["%.17g"] * 2 + ["%s"] + ["%.17g"] * 6) + "\n"
_REGION_TEXT = np.array(REGION_LABELS, dtype="S")

# '%.17g' text computed in numpy.  A value with 1e-200 <= |x| <= 1e200 is
# scaled to y = |x| 10**(16-k), k = floor(log10 |x|), as a double-double
# h + l: 10**p is stored as hi + lo, exact to about 2**-106, and Dekker's
# product of |x| and hi is exact, so y is known to better than 1e-14 and
# h >= 2**53 is an integer.  The 17 digits D are y rounded by the
# fraction of l.  Python's % formats the values this cannot decide: a
# fraction within _G17_TIE of 1/2 (an exact tie, or too close to call),
# a D outside [1e16, 1e17) (k one off next to a power of ten, or a carry
# out of the rounding), and any nonzero finite value outside the range.
_G17_WIDTH = 24  # the longest text, -d.dddddddddddddddde-ddd
_G17_RANGE = (1e-200, 1e200)
_G17_TIE = 1e-9
_G17_POW = (-190, 220)  # the p of the 10**p table; p = 16 - k, |k| <= 202
_G17_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# The text of a value is a slot of four little-endian uint64 words, with
# every piece at a fixed byte and NUL wherever the value has no byte:
# 0 the sign, 1-5 the "0.000" of the layouts k = -4 .. -1, 6 the first
# digit, 7 the dot, 8-15 and 16-23 the other 16 digits, cut after the
# last one that is not a trailing zero, and 24-28 the exponent, "e-05"
# or "e+100", of the layouts k < -4 and k > 16.  For k = 1 .. 16 the dot
# moves behind the k digits it follows.  A writer drops the NULs.
_G17_SLOT = 29  # bytes of a slot that can hold text


def _word(text: str, at: int = 0) -> int:
    """The little-endian uint64 with ASCII ``text`` from byte ``at``."""
    return int.from_bytes(bytes(at) + text.encode(), "little")


@functools.cache
def _g17_tables() -> tuple:
    """Powers of ten and the slot words of signs, digits and exponents, built on first use."""
    exact = [(10**p, 1) if p >= 0 else (1, 10**-p) for p in range(_G17_POW[0], _G17_POW[1] + 1)]
    hi = np.array([n / d for n, d in exact])  # int / int rounds correctly
    lo = [(n * hd - hn * d) / (d * hd) for (n, d), (hn, hd) in
          zip(exact, map(float.as_integer_ratio, hi.tolist()))]
    c = _G17_SPLIT * hi
    hh = c - (c - hi)
    pow10 = np.stack([hi, hh, hi - hh, np.array(lo)])

    words = functools.partial(np.array, dtype=np.uint64)
    quads = np.arange(10000)
    quad = (48 + quads[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8).view(np.uint32)
    quad = quad.ravel().astype(np.uint64)  # four ASCII digits in the low bytes
    # digits kept when group i of four ends the text: 4i + its digits up to the last nonzero
    tz4 = sum(quads % 10**j == 0 for j in range(1, 5))
    sig = np.where(quads > 0, 4 - tz4 + 4 * np.arange(4)[:, None], 0).astype(np.int8)
    ks = range(-202, 203)  # exponent k, at k + 202 (|k| <= 202, as in _G17_POW)
    # words 0-2 of a slot kept with r digits after the first, and the dot if dot
    ones = (1 << 64) - 1
    keep = words([[ones ^ (dot ^ 1) * _word(".", 7), (1 << 8 * min(r, 8)) - 1,
                   (1 << 8 * max(r - 8, 0)) - 1] for dot in range(2) for r in range(17)])
    # the source bytes of bytes 7-23 for k = 1 .. 16: the dot behind the next k digits
    perm = np.array([list(range(8, k + 8)) + [7] + list(range(k + 8, 24)) for k in range(17)])
    return (
        pow10,
        words([0, _word("-"), _word("+"), _word("-")]),  # by signbit + 2 plus
        words([_word(str(d), 6) for d in range(10)]),
        words([_word("0." + "0" * (-k - 1), 1) if -4 <= k < 0 else _word(".", 7) for k in ks]),
        words([0 if -4 <= k <= 16 else _word("e%+03d" % k) for k in ks]),
        quad,
        quad << np.uint64(32),
        sig,
        np.array([k if 0 < k <= 16 else 0 for k in ks]),  # digits after the first before the dot
        keep,
        perm,
        # 0 and nan for each signbit + 2 plus
        words([[_word(t), 0, 0, 0] for t in ("0", "nan", "-0", "nan", "+0", "+nan", "-0", "-nan")]),
    )


def _g17_slots(v: np.ndarray, plus=False) -> np.ndarray:
    """(n, 4) uint64: the ``'%.17g' % x`` slot of each float, ``nan`` if not finite.

    Where ``plus`` (broadcast against ``v``) is true, the text of |x| gets
    the sign of the sign bit of x, ``-nan`` included.
    """
    sign = (np.signbit(v) + 2 * np.asarray(plus)).ravel()
    v = v.ravel()
    finite = np.isfinite(v)
    digits = finite & (v != 0)
    # zeros and non-finite values take their whole slot from a table
    special = _g17_tables()[-1]
    if 4 * np.count_nonzero(digits) < 3 * len(v):  # mostly zeros: digits for the others alone
        slots = special.take(2 * sign + ~finite, axis=0)
        rows = np.flatnonzero(digits)
        slots[rows] = _g17_digits(v[rows], sign[rows])
        return slots
    slots = _g17_digits(np.where(digits, v, 1.0), sign)
    rows = np.flatnonzero(~digits)
    slots[rows] = special.take(2 * sign[rows] + ~finite[rows], axis=0)
    return slots


def _g17_text(v: np.ndarray, plus=False) -> np.ndarray:
    """The NUL-padded ``'%.17g' % x`` bytes of each float, as ``_g17_slots`` words them."""
    slots = _g17_slots(v, plus).view(np.uint8)
    order = np.argsort(slots == 0, axis=1, kind="stable")[:, :_G17_WIDTH]
    return np.take_along_axis(slots, order, axis=1)


def _g17_digits(v: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The slots of nonzero finite floats; sign is signbit + 2 plus."""
    pow10, signs, leads, first, expo, quad, quad_hi, sig, before, keep, perm, _ = _g17_tables()
    a = np.abs(v)
    fast = (a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1])
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    # y = a 10**(16 - k) = h + l, with h = a hi and l exact to 2**-106 y
    i = 16 - _G17_POW[0] - k
    hi, hh, hl, lo = (row.take(i) for row in pow10)
    c = _G17_SPLIT * a
    ah = c - (c - a)
    al = a - ah
    h = a * hi
    l = ((ah * hh - h) + ah * hl + al * hh) + al * hl + a * lo
    fl = np.floor(l)
    D, frac = h.astype(np.int64) + fl.astype(np.int64), l - fl
    slow = (D < 10**16) | (np.abs(frac - 0.5) < _G17_TIE)
    D += frac > 0.5
    slow |= (D >= 10**17) | ~fast
    D[slow] = 10**16

    # D is a lead digit and four groups of four; its two halves fit int32,
    # whose division by a constant numpy vectorizes (int64's it does not)
    top = D // 10**8
    low = (D - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**8
    top -= lead * 10**8
    groups = []
    for half in (top, low):
        q = half // 10**4
        groups += [q, half - q * 10**4]
    k += 202
    slots = np.empty((len(v), 4), dtype=np.uint64)
    slots[:, 0] = signs.take(sign) | leads.take(lead) | first.take(k)
    slots[:, 1] = quad.take(groups[0]) | quad_hi.take(groups[1])
    slots[:, 2] = quad.take(groups[2]) | quad_hi.take(groups[3])
    slots[:, 3] = expo.take(k)
    # cut trailing zeros, but not digits before the dot, and the dot with no digits after it
    rows = np.flatnonzero(sig[3].take(groups[3]) - before.take(k) < 16)
    if rows.size:
        r = np.maximum.reduce([s.take(g[rows]) for s, g in zip(sig, groups)])
        b = before.take(k[rows])
        slots[rows, :3] &= keep.take(np.maximum(r, b) + 17 * (r > b), axis=0)
        at = 32 * rows[b > 0, None]
        flat = slots.view(np.uint8).reshape(-1)
        flat[at + np.arange(7, 24)] = flat[at + perm.take(b[b > 0], axis=0)]
    if slow.any():
        text = [("%+.17g" if c > 1 else "%.17g") % x
                for x, c in zip(v[slow].tolist(), sign[slow].tolist())]
        slots[slow] = 0
        text = np.array(text, dtype=f"S{_G17_WIDTH}")[:, None]
        slots.view(np.uint8)[slow, :_G17_WIDTH] = text.view(np.uint8)
    return slots


@functools.cache
def _csv_layout(row: str, widths: tuple) -> tuple:
    """How ``_write_csv`` lays out ``row`` with text cells of ``widths`` bytes, parsed once.

    A line is a cell per spec, its literal padded to the longest one and
    then its slot or text, and the literal that ends the line.
    """
    specs = re.findall(r"%\+?\.17g|%s", row)
    literals = re.split(r"%\+?\.17g|%s", row)
    lead = max(map(len, literals))
    text_widths = iter(widths)
    at = np.cumsum([0] + [lead + (next(text_widths) if spec == "%s" else _G17_SLOT)
                          for spec in specs]) + lead  # where each cell's slot or text starts
    line = np.zeros(at[-1], dtype=np.uint8)
    for a, text in zip(at - lead, literals):
        line[a : a + len(text)] = list(text.encode())
    num = [i for i, spec in enumerate(specs) if spec != "%s"]
    # (first slot, first column, length) of each run of adjacent number cells
    starts = [j for j in range(len(num)) if j == 0 or num[j] != num[j - 1] + 1]
    runs = [(at[num[a]], a, b - a) for a, b in zip(starts, starts[1:] + [len(num)])]
    return (_readonly(np.array([specs[i] == "%+.17g" for i in num])), runs,
            [at[i] for i, spec in enumerate(specs) if spec == "%s"], _readonly(line),
            lead + _G17_SLOT, max(1, _CSV_CHUNK_VALUES // len(specs)))


def _write_csv(path, header: str, row: str, numbers: np.ndarray, texts=()) -> None:
    """Write lines of the format ``row`` from a block of numbers and coded texts.

    ``row`` holds ``%.17g`` or ``%+.17g`` (a number) and ``%s`` (a text)
    cells, with literal text around them.  ``numbers`` is a 2-D float
    block with one column per number cell, in order; ``texts`` holds one
    ``(table, codes)`` pair per text cell, in order, where ``table`` is a
    bytes array and line i gets ``table[codes[i]]``.  Numbers come out as
    ``'%.17g' % x`` does, non-finite ones as ``nan``; ``%+.17g`` puts the
    sign of the sign bit before the text of |x|, so a NaN with its sign
    bit set is ``-nan``.  A chunk of lines at a time becomes a byte
    matrix with a row per line (``_csv_layout``), NUL wherever a slot or
    text has no byte; each run of adjacent number cells is filled by one
    slice, and the NULs are dropped from the whole chunk at once.
    """
    widths = tuple(table.itemsize for table, _ in texts)
    plus, runs, text_at, line, stride, step = _csv_layout(row, widths)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        mat = np.tile(line, (min(step, len(numbers)), 1))
        for lo in range(0, len(numbers), step):
            block = numbers[lo : lo + step]
            part = mat[: len(block)]
            slots = _g17_slots(block, plus).view(np.uint8).reshape(len(part), len(plus), 32)
            for at, col, count in runs:
                cells = part[:, at : at + count * stride].reshape(len(part), count, stride)
                cells[:, :, :_G17_SLOT] = slots[:, col : col + count, :_G17_SLOT]
            for at, (table, codes) in zip(text_at, texts):
                cells = table[codes[lo : lo + step], None].view(np.uint8)
                part[:, at : at + cells.shape[1]] = cells
            fh.write(part.tobytes().translate(None, b"\0"))


def write_field_csv(grid: FieldGrid, path) -> None:
    """Dump a field grid in 17-significant-digit round-trip format."""
    z = np.ascontiguousarray(grid.z, dtype=complex).reshape(-1)
    # x and y as the text of each distinct bit pattern, so -0.0 and NaN payloads keep theirs
    bits, codes = np.unique(z.view(np.uint64), return_inverse=True)
    xy = _g17_text(bits.view(float)).view(f"S{_G17_WIDTH}").ravel()
    codes = codes.reshape(-1, 2)
    numbers = np.stack([a.reshape(-1) for a in (grid.w, grid.u0, grid.S, grid.u)], axis=1)
    _write_csv(path, _CSV_HEADER, _CSV_ROW, numbers.view(float),
               [(xy, codes[:, 0]), (xy, codes[:, 1]), (_REGION_TEXT, grid.region.reshape(-1))])

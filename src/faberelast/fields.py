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

    2S = - kappa alpha2 (conj(P1) + P2) + alpha2 Psi conj(P3/Psi')
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
is given z, and Newton inversion stops within _NEWTON_TOL max(1, |z|)
of it (``conformal._NEWTON_TOL``, 1e-12), so ``field_grid`` polishes each
exterior preimage with one more Newton step from the map rows, which
takes |Psi(w) - z| to rounding, and then sums S and u0 at it as a probe
does.  Interior and boundary points,
and the boundary branch of ``displacement``, take S and u0 from one
``_interior_field`` call, so the Faber recurrence runs once per point
set and only there.

An interior grid point needs no preimage, so ``field_grid`` runs Newton
only on the points that can lie outside.  One polygon, the kept 256-gon
of boundary samples, serves both ends: it places the points Newton
leaves unconverged (interior if it encloses them, ambiguous boundary
otherwise), and it marks a point interior before Newton when it
encloses it by the even-odd rule (Hormann and Agathos, "The point in
polygon problem for arbitrary polygons", Comput. Geom. 20, 2001) and no
edge's bounding box, widened by a margin m, holds it, so that every
edge is at least m away (``_enclosed``).  On the boundary curve
g(theta) = Psi(e^{i theta}), |g''| <= 1 + sum_k k**2 |a_k|, so each arc
of a q-gon lies within the sagitta (2 pi/q)**2/8 (1 + sum_k k**2 |a_k|)
of its chord.  Moving each arc onto its chord then moves no point of
the curve farther than that, so a point farther than the sagitta from
the edges has the same winding number about the curve as about the
polygon.  m is the sum of:

    the sagitta of the 256-gon;
    Newton's tolerance _NEWTON_TOL max(1, |z|), with |z| at most the largest
        vertex modulus, as the point lies in the polygon's hull;
    the boundary band 1e-10 of |w| times 2 (1 + sum_k k |a_k|), a bound
        on |Psi'| at |w| >= 1 - 1e-10 for any order below 10**9.

The map must be univalent, and ``require_univalent`` runs first, so Psi
takes |w| >= 1 onto the closed exterior of the curve.  A point past m
then lies inside the curve and farther from its exterior than any
preimage with |w| >= 1 - 1e-10 that Newton could accept: Newton could
not make it exterior or boundary, and were it left unconverged the
polygon, which encloses it, would place it inside.  So Newton and the
polygon would make it interior too, with w NaN, and its S and u0 come
from the same ``_interior_field`` call: every array of the grid keeps
the bits it has when every point goes through Newton.

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

``write_field_csv`` only chooses a grid's columns: x and y coded by
their distinct bit patterns, the region by its label, and w, u0, S and u
as numbers.  ``csvtext.write_csv`` writes their text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import (_NEWTON_TOL, ExteriorMap, _check_exterior, _point_or_array, _readonly,
                        _row_sums)
from .csvtext import write_csv
from .faber import FaberTable, _chop_width, _derivative_coefficients, check_table_map
from .loading import FarFieldLoading, Material, _km_displacement, _u0_potentials
from .solver import DensitySolution

_BOUNDARY_TOL = 1e-10
#: vertices of the boundary polygon that certifies interior points and places unconverged ones
_POLYGON_Q = 256

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
    ``unconverged`` counts the points Newton ran on and left unconverged;
    the points the polygon surely encloses never reach Newton.

    The grid is also a sequence of FieldSample in row-major order;
    iteration goes through ``__getitem__``.
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

    def __getitem__(self, index):
        """The sample at an integer index, or the list of samples of a slice."""
        k = range(len(self))[index]
        if isinstance(k, range):
            return [self[i] for i in k]
        return FieldSample(
            z=complex(self.z.flat[k]),
            w=complex(self.w.flat[k]),
            region=REGION_LABELS[self.region.flat[k]],
            u0=complex(self.u0.flat[k]),
            S=complex(self.S.flat[k]),
            u=complex(self.u.flat[k]),
        )


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
    conj_a = np.conj(np.concatenate(([1.0], mapping._coeff_array)))  # a_{-1} = 1, a_0 .. a_M
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
        slot = (table, tuple(map(_readonly, build())))
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
        -mat.kappa * mat.alpha2 * (np.conj(P1) + P2)
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


def single_layer_exterior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    w,
):
    """Single-layer value S at z = Psi(w), |w| >= 1."""
    w = _check_exterior(np.asarray(w, dtype=complex))
    _check_table(sol, table, mapping)
    return _point_or_array(w, _exterior_S(sol, table, mapping, mat, w.reshape(-1))[0])


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
    w = _check_exterior(complex(w))
    mapping.require_univalent()
    if abs(w) <= 1.0 + _BOUNDARY_TOL:
        z = mapping.eval(w)
        S, u0 = _interior_field(sol, table, mapping, mat, loading, z)
        return FieldSample(z=z, w=w, region=REGION_BOUNDARY, u0=u0, S=S,
                           u=complex(sol.rigid_motion(z)))
    wa = np.array([w])
    S, u0, psi = (complex(v[0]) for v in _exterior_field(sol, table, mapping, mat, loading, wa))
    return FieldSample(z=psi, w=w, region=REGION_EXTERIOR, u0=u0, S=S, u=u0 + S)


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple:
    """(j, i): each integer j of [start[i], stop[i]), stop >= start, for each i in order."""
    i = np.repeat(np.arange(len(start)), stop - start)
    return np.arange(len(i)) + np.repeat(stop - np.cumsum(stop - start), stop - start), i


def _enclosed(xs: np.ndarray, ys: np.ndarray, poly: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Even-odd test of the grid points xs + i ys against a closed polygon, (ny, nx) bool.

    Row by row: the edge from p to q crosses the rows with y in
    [min(p.y, q.y), max(p.y, q.y)) at one x each, and a point is enclosed
    when an odd number of the crossings of its row lie right of it.  A
    closed polygon crosses each row an even number of times, so the
    enclosed points of a row run from its crossing 2j - 1 to its crossing
    2j, counted from the left.  With ``margin`` > 0, the points in an
    edge's bounding box widened by ``margin`` on each side are left out.
    """
    ny, nx = len(ys), len(xs)
    px, py, qx, qy = poly.real, poly.imag, np.roll(poly.real, -1), np.roll(poly.imag, -1)
    ylo, yhi = np.minimum(py, qy), np.maximum(py, qy)
    r, e = _ranges(*np.searchsorted(ys, [ylo, yhi]))
    xin = px[e] + (ys[r] - py[e]) * (qx[e] - px[e]) / (qy[e] - py[e])
    # each crossing's row, then the first column right of it: sorted, row by row
    cross = np.sort(r * (nx + 1) + np.searchsorted(xs, xin)).reshape(-1, 2)
    # the points from crossing 2j - 1 to 2j, as indices r nx + column
    inside = np.bincount(_ranges(*(cross - cross // (nx + 1)).T)[0], minlength=ny * nx) > 0
    if margin > 0:
        r, e = _ranges(*np.searchsorted(ys, [ylo - margin, yhi + margin]))
        cols = np.searchsorted(xs, [np.minimum(px, qx)[e] - margin, np.maximum(px, qx)[e] + margin])
        inside[_ranges(*(r * nx + cols))[0]] = False
    return inside.reshape(ny, nx)


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

    A point the kept boundary polygon encloses by more than the margin
    of the module docstring is interior.  Every other point is classified
    by Newton inversion of the map: a preimage with |w| > 1 means
    exterior, |w| < 1 (or a point the iteration cannot place that the
    polygon encloses) means interior, and anything within tolerance of
    |w| = 1 is boundary.  Interior and boundary samples carry the
    rigid-motion displacement of the inclusion; their S column holds the
    interior series value.

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

    # the points the kept polygon encloses by more than the margin of the module
    # docstring are interior without Newton: w NaN, counted as converged
    ka = np.arange(len(mapping._coeff_array)) * np.abs(mapping._coeff_array)  # k |a_k|
    poly = mapping.boundary_samples(_POLYGON_Q)[1]
    sagitta = np.pi**2 / 2 / _POLYGON_Q**2 * (1 + np.arange(len(ka)) @ ka)
    newton = _NEWTON_TOL * max(1.0, np.abs(poly).max()) + 2 * _BOUNDARY_TOL * (1 + ka.sum())
    todo = np.flatnonzero(~_enclosed(xs, ys, poly, sagitta + newton))
    wv, converged = np.full(Z.shape, complex(np.nan, np.nan)), np.ones(Z.shape, dtype=bool)
    wv[todo], converged[todo] = mapping.invert(Z[todo])
    radii = np.abs(wv)
    region = np.full(Z.shape, INTERIOR, dtype=np.int8)
    region[converged & (np.abs(radii - 1.0) <= _BOUNDARY_TOL)] = BOUNDARY
    region[converged & (radii > 1.0 + _BOUNDARY_TOL)] = EXTERIOR
    ambiguous = np.zeros(Z.shape, dtype=bool)
    undecided = np.nonzero(~converged)[0]
    if len(undecided):
        outside = undecided[~_enclosed(xs, ys, poly).ravel()[undecided]]
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


_CSV_HEADER = "x,y,re_w,im_w,region,re_u0,im_u0,re_S,im_S,re_u,im_u\n"
_CSV_ROW = ",".join(["%s"] * 2 + ["%.17g"] * 2 + ["%s"] + ["%.17g"] * 6) + "\n"
_REGION_TEXT = np.array(REGION_LABELS, dtype="S")


def write_field_csv(grid: FieldGrid, path) -> None:
    """Dump a field grid in 17-significant-digit round-trip format."""
    z = np.ascontiguousarray(grid.z, dtype=complex).reshape(-1)
    # x and y coded by their distinct bit patterns, so -0.0 and NaN payloads keep their text
    bits, codes = np.unique(z.view(np.uint64), return_inverse=True)
    xy = bits.view(float)
    codes = codes.reshape(-1, 2)
    numbers = np.stack([a.reshape(-1) for a in (grid.w, grid.u0, grid.S, grid.u)], axis=1)
    write_csv(path, _CSV_HEADER, _CSV_ROW, numbers.view(float),
              [(xy, codes[:, 0]), (xy, codes[:, 1]), (_REGION_TEXT, grid.region.reshape(-1))])

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

from dataclasses import dataclass

import numpy as np

from .conformal import _INSIDE_TOL, ExteriorMap
from .errors import DomainError
from .faber import FaberTable, check_table_map, faber_values
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


def _active_modes(sol: DensitySolution) -> list:
    """The modes m = 1..order with s_m or t_m nonzero, in increasing order."""
    n = sol.order
    return (np.flatnonzero((sol.s[:n] != 0) | (sol.t[:n] != 0)) + 1).tolist()


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
    M = mapping.order
    modes = _active_modes(sol)
    n = modes[-1] if modes else 0  # effective degree
    F, Fp = faber_values(mapping, n + M, za)

    def ftilde(j):
        if j <= 0:
            return 0.0
        return Fp[j] / j

    a1 = mat.alpha1
    a2 = mat.alpha2
    twoS = np.zeros_like(za)
    for m in modes:
        sm = sol.s[m - 1]
        tm = sol.t[m - 1]
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


def _horner_rows(rows, u: np.ndarray) -> np.ndarray:
    """Values sum_k row[k] u**k of coefficient rows given longest first.

    Returns an array of shape (len(rows), len(u)).  The rows are stacked
    left-aligned, highest coefficient first, so the rows still running
    at each step are a prefix of the stack, and every element goes
    through the same ``acc = acc*u + c`` sequence as a loop over one row.
    """
    lengths = [len(row) for row in rows]
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError("rows must come longest first")
    width = lengths[0] if rows else 0
    coef = np.zeros((len(rows), width), dtype=complex)
    for r, row in enumerate(rows):
        coef[r, : len(row)] = row[::-1]
    acc = np.zeros((len(rows), len(u)), dtype=complex)
    k = len(rows)
    for step in range(width):
        while lengths[k - 1] <= step:  # row k-1 has run out
            k -= 1
        head = acc[:k]
        head *= u
        head += coef[:k, step, None]
    return acc


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
    wa = w.reshape(-1)
    if np.any(np.abs(wa) < 1.0 - _INSIDE_TOL):
        raise DomainError("exterior evaluation needs |w| >= 1")
    check_table_map(mapping, table)
    n = sol.order
    M = mapping.order
    if table.order < n + M:
        raise ValueError("Faber table too small for the solution order")
    u = 1.0 / wa
    psi = mapping.eval(wa)
    inv_dpsi = 1.0 / mapping.derivative(wa)
    modes = _active_modes(sol)
    taps = [(k, np.conj(mapping.coefficient(k))) for k in range(-1, M + 1)]
    taps = [(k, cak) for k, cak in taps if cak != 0]

    # pass 1: F_m(Psi(w)) - w**m = sum_k c_{m,k} u**k, and v1; the
    # highest mode has the longest Grunsky row, so it leads the stack
    comp = _horner_rows([table.grunsky_row(m) for m in modes[::-1]], u)[::-1]
    comp *= u
    v1 = np.zeros_like(wa)
    for i, m in enumerate(modes):
        sm = sol.s[m - 1]
        tm = sol.t[m - 1]
        um = u**m  # the expression shapes below are part of the output bits
        if sm != 0:
            v1 += (sm / m) * (np.conj(comp[i]) + um)
        if tm != 0:
            v1 += (tm / m) * (comp[i] + np.conj(um))
    del comp  # no view of it is left, so pass 2 reuses the memory

    # pass 2: Ftilde_j(Psi(w)) - G_j(w) for every j the modes reach
    reach = set()
    for m in modes:
        if sol.s[m - 1] != 0:
            reach.update(k - m for k, _ in taps)
        if sol.t[m - 1] != 0:
            reach.update(k + m for k, _ in taps)
            reach.add(m)
    js = sorted((j for j in reach if j > 0), reverse=True)
    rows = map(table.grunsky_row, js)
    tilde = _horner_rows([row * np.arange(1, len(row) + 1) for row in rows], u)
    # tilde_j = sum_k k c_{j,k} u^{k-1}; multiply the two u powers back in
    tilde *= u
    tilde *= u
    np.negative(tilde, out=tilde)
    tilde *= inv_dpsi
    tilde /= np.array(js)[:, None]
    tg = dict(zip(js, tilde))
    for j in reach:
        if j <= 0:
            tg[j] = -(u ** (1 - j)) * inv_dpsi

    v2 = np.zeros_like(wa)
    v3 = np.zeros_like(wa)
    for m in modes:
        sm = sol.s[m - 1]
        tm = sol.t[m - 1]
        um = u**m  # as in pass 1, the expression shapes are part of the bits
        if sm != 0:
            v2 += -sm * (u * um) * inv_dpsi  # -G_{-m}
        if tm != 0:
            v2 += tm * tg[m]
        inner_s = 0.0
        inner_t = 0.0
        for k, cak in taps:
            if sm != 0:
                inner_s = inner_s + cak * tg[k - m]
            if tm != 0:
                inner_t = inner_t + cak * tg[k + m]
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
    if r < 1.0 - _INSIDE_TOL:
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
) -> FieldGrid:
    """Evaluate the field on a rectangular grid, row-major in y then x.

    Each point is classified by Newton inversion of the map: a preimage
    with |w| > 1 means exterior, |w| < 1 (or a point the iteration
    cannot place that the boundary polygon encloses) means interior,
    and anything within tolerance of |w| = 1 is boundary.  Interior and
    boundary samples carry the rigid-motion displacement of the
    inclusion; their S column holds the interior series value.

    All exterior points go through one call of the exterior series and
    all other points through one call of the interior series; the
    result is a FieldGrid of arrays of shape (ny, nx).
    """
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
        poly = mapping.boundary_point(
            np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        )
        outside = undecided[~_points_in_polygon(Z[undecided], poly)]
        region[outside] = BOUNDARY  # ambiguous: report as boundary
        ambiguous[outside] = True
    exterior = region == EXTERIOR
    w = np.where((region != INTERIOR) & ~ambiguous, wv, complex(np.nan, np.nan))

    u0 = np.asarray(eval_u0(loading, table, mat, Z))
    S = np.zeros_like(Z)
    u = np.zeros_like(Z)

    if exterior.any():
        S[exterior] = single_layer_exterior(sol, table, mapping, mat, wv[exterior])
        u[exterior] = u0[exterior] + S[exterior]
    inner = ~exterior
    if inner.any():
        S[inner] = single_layer_interior(sol, table, mapping, mat, Z[inner])
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
_CSV_ROW = "%s,%s,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
_REGION_TEXT = np.array(REGION_LABELS, dtype=object)


def _finite_or_nan(a: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(a), a, np.nan)


def _formatted(values: np.ndarray) -> np.ndarray:
    """'%.17g' text of each value, formatted once per distinct bit pattern."""
    bits, inverse = np.unique(
        _finite_or_nan(values).view(np.uint64), return_inverse=True
    )
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse]


def _write_csv(path, header: str, row: str, columns) -> None:
    """Write equal-length 1-D columns as lines of the format ``row``.

    Non-finite values of float columns are written as ``nan``.  Lines
    are formatted a chunk at a time with one ``%`` call, so the text of
    the whole file is never held in memory at once.
    """
    columns = [_finite_or_nan(c) if c.dtype.kind == "f" else c for c in columns]
    ncol = len(columns)
    step = max(1, _CSV_CHUNK_VALUES // ncol)
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        for lo in range(0, len(columns[0]), step):
            chunk = [col[lo : lo + step].tolist() for col in columns]
            k = len(chunk[0])
            flat = [None] * (ncol * k)
            for c, values in enumerate(chunk):
                flat[c::ncol] = values
            fh.write((row * k) % tuple(flat))


def write_field_csv(grid: FieldGrid, path) -> None:
    """Dump a field grid in 17-significant-digit round-trip format."""
    z, w, u0, S, u = (a.ravel() for a in (grid.z, grid.w, grid.u0, grid.S, grid.u))
    columns = (_formatted(z.real), _formatted(z.imag), w.real, w.imag,
               _REGION_TEXT[grid.region.ravel()],
               u0.real, u0.imag, S.real, S.imag, u.real, u.imag)
    _write_csv(path, _CSV_HEADER, _CSV_ROW, columns)

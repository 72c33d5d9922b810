"""Single-layer potential and total displacement from a density solution.

Every term of the single layer is linear in the density coefficients
(s_m, t_m), so each evaluator first gathers them into a few coefficient
vectors and then sums those at all points in one pass.  With the map
Psi(w) = w + sum_{k=0}^M a_k w**-k, a_{-1} = 1 and n the highest mode
with s_n or t_n nonzero, both share the weights

    W_j = sum_m s_m conj(a_{j+m}) + t_m conj(a_{j-m}),  j = -n-1 .. n+M.

Inside the inclusion the field is a Kolosov-Muskhelishvili displacement
of two Faber series, summed as u0 is (``loading._km_displacement``).
With alpha1 = kappa alpha2 (see Material),

    S = -(alpha2/2) (kappa phi(z) - z conj(phi'(z)) - conj(psi(z))),
    phi = sum_m (t_m/m) F_m,
    psi = - kappa sum_m (conj(s_m)/m) F_m - sum_{j>=1} (W_j/j) F_j',

and every derivative there is re-expanded in F_0 .. F_{n+M-1} through
the coefficients d of 1/Psi' (see faber), so only F itself is evaluated.

Outside, each term is rewritten through the exact finite Grunsky rows
of the map, with u = 1/w,

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
loading goes through the same rows at a probe, where z = Psi(w) holds
exactly: with F_m'(Psi(w)) Psi'(w) = m w**(m-1) - sum_k k c_{m,k}
u**(k+1), each of h, h' Psi' and l is a polynomial in w (from A_m, B_m
alone) plus one in u (from the Grunsky rows), so no Faber recurrence
runs there.  The u-rows of P1..P4, and those of h, h' Psi' and l, each
come from one product of their weights with the Grunsky rows per call.
A grid point lies only within the Newton tolerance of Psi(w), so on a
grid u0 is summed at z itself, by ``eval_u0``.

Every row is summed by blocked (Paterson-Stockmeyer) evaluation: a row
of K coefficients is cut into blocks of B = ceil(sqrt(K)), one matrix
product with the powers u**0 .. u**(B-1) sums all blocks at all points,
and Horner runs over the block sums in u**B, so a row costs about
sqrt(K) array steps instead of K.  |u| <= 1 keeps the power table
bounded; the rows in w go through the same kernel in w.  Rows of at
most 32 terms (the figure configs) take blocks of one term, which is
plain Horner with no matrix product, so none of their point arrays goes
through BLAS.  Points are taken in chunks sized from the number of rows
times blocks, so the block sums of one chunk stay near 1 MB however
many points a grid has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import _INSIDE_TOL, ExteriorMap
from .errors import DomainError
from .faber import FaberTable, _derivative_coefficients, check_table_map
from .loading import FarFieldLoading, Material, _km_displacement, _u0_potentials, eval_u0
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


def _weights(sol: DensitySolution, table: FaberTable, mapping: ExteriorMap) -> tuple:
    """Effective degree n, s_1..s_n, t_1..t_n and the weights W.

    n is the highest mode with s_n or t_n nonzero (1 for a zero
    solution).  W[j + n + 1] = W_j for j = -n-1 .. n+M.  Raises
    ValueError unless ``table`` was built for ``mapping`` and reaches
    order n + M.
    """
    check_table_map(mapping, table)
    M = mapping.order
    if table.order < sol.order + M:
        raise ValueError("Faber table too small for the solution order")
    active = np.flatnonzero((sol.s[: sol.order] != 0) | (sol.t[: sol.order] != 0))
    n = int(active[-1]) + 1 if len(active) else 1
    s, t = sol.s[:n], sol.t[:n]
    conj_a = np.conj([mapping.coefficient(k) for k in range(-1, M + 1)])
    W = np.zeros(2 * n + M + 2, dtype=complex)
    W[: n + M + 1] += np.convolve(s[::-1], conj_a)  # s_m conj(a_{j+m})
    W[n + 1 :] += np.convolve(t, conj_a)  # t_m conj(a_{j-m})
    return n, s, t, W


def _interior(weights: tuple, table: FaberTable, mapping: ExteriorMap, mat: Material, z):
    """Single-layer value S at z in the closed inclusion, from ``_weights``."""
    n, s, t, W = weights
    M = mapping.order
    j = np.arange(1, n + M + 1)
    scale = -0.5 * mat.alpha2
    # psi reaches index n+M-1, past n when M > 1
    phi = np.zeros(max(n + 1, n + M), dtype=complex)
    psi = np.zeros_like(phi)
    phi[1 : n + 1] = scale * t / j[:n]
    psi[1 : n + 1] = -mat.kappa * scale * np.conj(s) / j[:n]
    W_over_j = np.concatenate(([0.0], scale * W[n + 2 :] / j))
    psi[: n + M] -= _derivative_coefficients(W_over_j, table.d)
    return _km_displacement(phi, psi, table, mat.kappa, z)


def single_layer_interior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    z,
):
    """Single-layer value S at z in the closed inclusion."""
    return _interior(_weights(sol, table, mapping), table, mapping, mat, z)


#: complex values in the block sums of one chunk of points (1 MB)
_BLOCK_VALUES = 1 << 16
#: rows of at most this many terms are summed by plain Horner (blocks of
#: one term, no matrix product): a product that thin saves little, and a
#: threaded BLAS can make it cost more than the whole sum
_HORNER_TERMS = 32


def _blocked_horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[r, k] x**k for each row r at the 1-D points x, shape (R, len(x)).

    Paterson-Stockmeyer: the K coefficients of each row are cut into nb
    blocks of B = ceil(sqrt(K)), or of B = 1 for K <= _HORNER_TERMS.  One
    product with the power table x**0 .. x**(B-1), built by doubling,
    sums every block, and Horner then runs over the nb block sums in
    x**B: about sqrt(K) array steps in place of K.  Points go in chunks,
    so the block sums of a chunk hold about _BLOCK_VALUES values.
    """
    R, K = coef.shape
    B = 1 if K <= _HORNER_TERMS else math.isqrt(K - 1) + 1
    nb = -(-K // B)
    blocks = np.zeros((R, nb * B), dtype=complex)
    blocks[:, :K] = coef
    # blocks[i, r] is block i of row r
    blocks = blocks.reshape(R, nb, B).transpose(1, 0, 2).copy()
    # blocks of one term are the coefficients themselves: no block sums
    step = max(1, _BLOCK_VALUES // (nb * R) if B > 1 else len(x))
    if len(x) <= step:
        return _horner_over_blocks(blocks, x)
    out = np.empty((R, len(x)), dtype=complex)
    for lo in range(0, len(x), step):
        out[:, lo : lo + step] = _horner_over_blocks(blocks, x[lo : lo + step])
    return out


def _horner_over_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One chunk of ``_blocked_horner``: blocks has shape (nb, R, B).

    A function of its own, so one chunk's block sums are freed before
    the next chunk's are made.
    """
    nb, R, B = blocks.shape
    if B > 1:
        # x**0 .. x**(B-1) by doubling: ceil(log2 B) products of whole
        # slabs, where cumprod along the first axis costs ten times as much
        powers = np.empty((B, len(x)), dtype=complex)
        powers[0] = 1.0
        k = 1
        while k < B:
            m = min(k, B - k)
            np.multiply(powers[:m], powers[k - 1] * x, out=powers[k : k + m])
            k += m
        sums = (blocks.reshape(nb * R, B) @ powers).reshape(nb, R, len(x))
        step_power = powers[-1] * x
    else:
        sums, step_power = blocks, x  # (nb, R, 1): plain Horner in x
    acc = np.empty((R, len(x)), dtype=complex)
    acc[:] = sums[-1]
    for part in sums[-2::-1]:
        acc *= step_power
        acc += part
    return acc


def _exterior(weights: tuple, table: FaberTable, mapping: ExteriorMap, mat: Material,
              w: np.ndarray, loading: FarFieldLoading | None = None) -> tuple:
    """(u0, S) at z = Psi(w) for the 1-D points w, |w| >= 1.

    u0 is None without a loading.  The decaying parts of S and of u0 each
    come from one product with the Grunsky rows and one blocked pass in
    u = 1/w, so S has the same bits with or without a loading.
    """
    n, s, t, W = weights
    M = mapping.order
    j = np.arange(1, n + M + 1)
    width = (n + M) * M + 1  # powers u**0 .. u**((n+M)M) of the Grunsky rows
    # P1..P4 by rows; X[r] weights the rows c_{j,k} of F_j(Psi(w)) - w**j
    X = np.zeros((4, n + M), dtype=complex)
    X[0, :n] = np.conj(s) / j[:n]
    X[1, :n] = t / j[:n]
    X[2, :n] = -X[1, :n]
    X[3] = W[n + 2 :] / j
    rows = X @ table._grunsky_wide[1 : n + M + 1, :width]
    rows[2:] *= np.arange(width)  # k c_{j,k}, at u**(k+1) below
    coef = np.zeros((4, max(width + 1, n + 3)), dtype=complex)
    coef[:2, :width] = rows[:2]
    coef[2:, 1 : width + 1] = rows[2:]
    coef[0, 1 : n + 1] += np.conj(t) / j[:n]
    coef[1, 1 : n + 1] += s / j[:n]
    coef[2, 2 : n + 2] -= s
    coef[3, 1 : n + 3] += W[n + 1 :: -1]  # W_j u**(1-j), j <= 0

    u = 1.0 / w
    P1, P2, P3, P4 = _blocked_horner(coef, u)
    psi = mapping.eval(w)
    dpsi = mapping.derivative(w)
    S = 0.5 * (
        -mat.alpha1 * (np.conj(P1) + P2)
        + mat.alpha2 * psi * np.conj(P3 / dpsi)
        + mat.alpha2 * np.conj(P4 / dpsi)
    )
    if loading is None:
        return None, S
    h, l = _u0_potentials(loading, table)
    p = len(h) - 1
    width = p * M + 1
    # decaying parts of h, l and h' Psi' in u; -k c_{m,k} sits at u**(k+1)
    hl = np.stack([h[1:], l[1:]]) @ table._grunsky_wide[1 : p + 1, :width]
    coef = np.zeros((3, width + 1), dtype=complex)
    coef[:2, :width] = hl
    coef[2, 1:] = -np.arange(width) * hl[0]
    # growing parts: polynomials in w, m A_m w**(m-1) for h' Psi'
    grow = np.zeros((3, p + 1), dtype=complex)
    grow[0], grow[1] = h, l
    grow[2, :p] = np.arange(1, p + 1) * h[1:]
    (H, L, dH), (gH, gL, gdH) = _blocked_horner(coef, u), _blocked_horner(grow, w)
    u0 = mat.kappa * (H + gH) - psi * np.conj((dH + gdH) / dpsi) - np.conj(L + gL)
    return u0, S


def single_layer_exterior(
    sol: DensitySolution,
    table: FaberTable,
    mapping: ExteriorMap,
    mat: Material,
    w,
):
    """Single-layer value S at z = Psi(w), |w| >= 1."""
    w = np.asarray(w, dtype=complex)
    wa = w.reshape(-1)
    if np.any(np.abs(wa) < 1.0 - _INSIDE_TOL):
        raise DomainError("exterior evaluation needs |w| >= 1")
    _, out = _exterior(_weights(sol, table, mapping), table, mapping, mat, wa)
    return complex(out[0]) if w.ndim == 0 else out.reshape(w.shape)


def _field_values(sol, table, mapping, mat, loading, z, w, exterior, on_map) -> tuple:
    """u0, S and u at the 1-D points z; w holds the preimages where exterior.

    Exterior points take S from the exterior series at Psi(w), and
    u = u0 + S.  Where z = Psi(w) holds exactly (``on_map``, as for a
    probe) their u0 comes from the same pass; a grid point lies only
    within the Newton tolerance of Psi(w), so there u0 is summed at z
    itself from its Faber series, as at every other point.  All other
    points take S from the interior series and u from the rigid motion.
    """
    weights = _weights(sol, table, mapping)
    u0 = np.zeros_like(z)
    S = np.zeros_like(z)
    u = np.zeros_like(z)
    at_z = ~exterior if on_map else np.ones_like(exterior)
    if exterior.any():
        u0_ext, S[exterior] = _exterior(weights, table, mapping, mat, w[exterior],
                                        loading if on_map else None)
        if on_map:
            u0[exterior] = u0_ext
    if at_z.any():
        u0[at_z] = eval_u0(loading, table, mat, z[at_z])
    u[exterior] = u0[exterior] + S[exterior]
    inner = ~exterior
    if inner.any():
        S[inner] = _interior(weights, table, mapping, mat, z[inner])
        u[inner] = sol.rigid_motion(z[inner])
    return u0, S, u


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
    exterior = r > 1.0 + _BOUNDARY_TOL
    u0, S, u = (complex(v[0]) for v in _field_values(
        sol, table, mapping, mat, loading, np.array([z]), np.array([w]), np.array([exterior]),
        on_map=True,
    ))
    region = REGION_EXTERIOR if exterior else REGION_BOUNDARY
    return FieldSample(z=z, w=w, region=region, u0=u0, S=S, u=u)


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
    result is a FieldGrid of arrays of shape (ny, nx).  An exterior
    sample holds u0 at z and S at Psi(w) for its Newton preimage w,
    which lies within the inversion tolerance of z.
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
    w = np.where((region != INTERIOR) & ~ambiguous, wv, complex(np.nan, np.nan))

    u0, S, u = _field_values(sol, table, mapping, mat, loading, Z, wv, region == EXTERIOR,
                             on_map=False)

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

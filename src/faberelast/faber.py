"""Faber polynomials, Grunsky coefficients, and the derivative basis.

For an exterior map Psi the Faber polynomial F_m is the unique monic
degree-m polynomial whose composition with Psi has a single positive
Laurent mode:

    F_m(Psi(w)) = w**m + sum_{k>=1} c_{m,k} w**(-k),

and the c_{m,k} are the Grunsky coefficients.  Every table here comes
from the one three-term-with-tail recurrence

    F_{m+1} = z F_m - sum_{s<=min(m,M)} a_s F_{m-s} - m a_m F_0,

run in three representations that differ only in how they multiply by z:
monomial coefficients, the Laurent canvas of F_m(Psi(w)) (z = Psi(w) is
a finite Laurent polynomial, so the Grunsky rows are exact and end at
k = m*M), and point values.  Each order costs a fixed number of numpy
calls: the s-sum is one BLAS product of the reversed taps with the last
min(m, M) + 1 rows.  The canvas row m is nonzero only at exponents
m .. -mM, so each order works on that support alone, and z * F_m there
is one product of the M + 2 shifted windows of row m with the map's
taps.  Differentiating the recurrence gives the one for F_m', whose
constant term drops out because F_0' = 0.

The canvas a table keeps is cut short of k = N*M.  Its entries decay
geometrically in k (on the high-degree benchmark config, map order 12
and table order 145, the column maxima are 5.7e-15 at k = 145 and
1e-38 at k = 400), and the cut is exact where it is made: column k of
row m + 1 reads columns up to k + 1 of row m and up to k of the rows
before it, so each row loses at most one exact column at the edge of
a canvas computed only to some k.  A canvas computed to
k = cap + N + 1 holds columns 0 .. cap of rows 0 .. N bit for bit when
BLAS runs on one thread; the column past cap + N is for BLAS kernels
that round the last columns of a product by another kernel.  A
threaded BLAS splits a long product at points that depend on its
length, so there the two agree to rounding, not bit for bit.  The
table keeps the columns before the point past which every row's tail
is below _CHOP, a sixteenth of eps, of the row's l1 norm, found on
those exact columns with room to see the decay (``_grunsky_wide``):
348 of the 1741 columns on that config.  Any sum of the rows in
u = 1/w at |u| <= 1 then drops less than a sixteenth of the rounding
bound of forming and summing it.  ``grunsky_row`` reads whole rows,
which the table keeps apart from the cut canvas.

The change of basis for derivatives,

    F_m' = sum_{j=1}^{m-1} gamma_{m,j} F_j + gamma_{m,0},

has the closed form gamma_{m,j} = m d_{m-1-j} and gamma_{m,0} = m d_{m-1},
where d_k are the Laurent coefficients of 1/Psi'(w) (keep the polynomial
part of F_m'(Psi(w)) = m w**(m-1) / Psi'(w) + O(w**-2); Curtiss, Amer.
Math. Monthly 78, 1971).  The table stores d alone, and the transmission
solve reads only d: every re-expansion of a conjugated series there is a
convolution or a Toeplitz product with conj(d).  The matrices Gamma and
gamma0 are built from d on first read, for the table dumps and checks.
So are the cut Laurent canvas and the Grunsky matrix taken from it:
only the exterior evaluators of fields, the table checks and the dumps
read them, and the first reader builds them once per table.
The field evaluators read d too: the Faber coefficients of
sum_m c_m F_m' are one correlation of (m c_m) with d
(``_derivative_coefficients``), so they evaluate F alone.  The solve's
right-hand side folds its conjugated weights with conj(d) through the
same correlation (``_fold_d``).
``faber_values`` keeps the differentiated recurrence, as the reference
that closed form is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conformal import ExteriorMap, _point_or_array, _readonly
from .errors import NumericError

#: the chop drops a series tail below _CHOP times the series' l1 norm:
#: a sixteenth of eps l1, the rounding bound of its sum at |u| <= 1
_CHOP = np.finfo(float).eps / 16


def _recurrence(a: np.ndarray, out: np.ndarray, times_z) -> np.ndarray:
    """Fill out[1:] from out[0] = F_0 by the Faber recurrence, in place.

    ``out`` is read through its (rows, -1) view, which must not be a copy.
    ``times_z(m)`` returns ``(cols, zF)``: a slice of that view's columns
    outside which F_{m+1} is zero, and a new array holding z * F_m there.
    The s-sum is one product of the reversed taps with the history rows;
    F_0 also carries the tail term m a_m, so its tap is (m + 1) a_m.
    """
    M = len(a) - 1
    flat = out.reshape(len(out), -1)
    if out.size and not np.may_share_memory(flat, out):
        raise ValueError("out must reshape to rows without a copy")
    rev = a[::-1].copy()  # contiguous: BLAS takes no negative stride
    for m in range(len(out) - 1):
        k = min(m, M) + 1
        taps = rev[M + 1 - k :]
        if m <= M:
            taps = np.concatenate(([(m + 1) * a[m]], taps[1:]))
        cols, new = times_z(m)
        np.subtract(new.reshape(-1), taps @ flat[m + 1 - k : m + 1, cols], out=flat[m + 1, cols])
    return out


def _inverse_derivative_series(a: np.ndarray, count: int) -> np.ndarray:
    """d_0 .. d_{count-1}: Laurent coefficients of 1/Psi'(w) in w**-k."""
    ia = np.arange(len(a)) * a  # Psi'(w) = 1 - sum_i i a_i w**(-i-1)
    d = np.zeros(count, dtype=complex)
    d[0] = 1.0
    for k in range(2, count):
        top = min(len(a) - 1, k - 1)
        d[k] = np.dot(ia[1 : top + 1], d[k - 2 :: -1][:top])
    return d


def _fold_d(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """e_j = sum_{m>j} g_m d_{m-1-j} for j = 0 .. len(g)-1.

    The d-fold of a Faber derivative series: with g_m = m c_m it gives
    the Faber coefficients of sum_m c_m F_m', by gamma_{m,j} = m d_{m-1-j}.
    One convolution of g with (0, d) reversed; ``d`` must hold
    d_0 .. d_{len(g)-2}.  The last entry is always 0.
    """
    d = d[: len(g) - 1]
    return np.convolve(g, np.concatenate(([0.0], d))[::-1])[len(d) :]


def _derivative_coefficients(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """e_0 .. e_{N-1} with sum_m c_m F_m' = sum_j e_j F_j, for c_0 .. c_N.

    ``d`` must hold d_0 .. d_{N-1}.
    """
    return _fold_d(np.arange(len(c)) * c, d)[:-1]


@dataclass(frozen=True)
class FaberTable:
    """Derivative data for F_0 ... F_N; the Grunsky rows are built on first read.

    The table stores d alone, read-only; the solve reads nothing else.
    The Laurent canvas and ``grunsky``, like gamma, gamma0 and monomial,
    are built on first read, once per table, and are read-only: the
    exterior evaluators of fields keep rows built from the canvas.  A
    pickle carries the map and the order only and rebuilds the table
    through ``build_faber``; equality and hashing read those two as well.
    """

    mapping: ExteriorMap
    d: np.ndarray = field(compare=False)  # (N,); [k] = d_k, Laurent coefficients of 1/Psi'(w)
    order: int

    def __reduce__(self):  # through build_faber, without the arrays built on read
        return build_faber, (self.mapping, self.order)

    @cached_property
    def _grunsky_wide(self) -> np.ndarray:
        """(N+1, K); [m, k] = c_{m,k} for k < K, cut where every row's tail is below the chop.

        K > N, so it holds ``grunsky``; the rows end at k = N*M only
        where no cut passes the chop test (see ``_grunsky_wide``).
        """
        return _readonly(_grunsky_wide(self.mapping, self.order, 4 * self.order))

    @cached_property
    def grunsky(self) -> np.ndarray:
        """(N, N); [m-1, k-1] = c_{m,k}, columns 1 .. N of the canvas rows 1 .. N."""
        return _readonly(self._grunsky_wide[1:, 1 : self.order + 1].copy())

    @cached_property
    def _whole_rows(self) -> np.ndarray:
        """(N+1, NM+1); the whole Grunsky rows 0 .. N, uncut.

        Built on first read of ``grunsky_row``: (N + 1)(NM + 1) complex
        numbers of 16 bytes, 4.1 MB at N = 145 and M = 12.
        """
        return _readonly(_grunsky_wide(self.mapping, self.order))

    def grunsky_row(self, m: int) -> np.ndarray:
        """All nonzero Grunsky coefficients of row m: c_{m,1} ... c_{m,mM}, a read-only view."""
        _check_index(self, m)
        return self._whole_rows[m, 1 : m * max(self.mapping.order, 1) + 1]

    @cached_property
    def gamma(self) -> np.ndarray:
        """(N, N); [m-1, j-1] = gamma_{m,j} = m d_{m-1-j}, strictly lower.

        Built on first read, like gamma0; the solve reads d instead.
        """
        m = np.arange(1, self.order + 1)
        lag = m[:, None] - m[None, :] - 1  # m - 1 - j at [m-1, j-1]
        return _readonly(np.where(lag >= 0, m[:, None] * self.d[np.maximum(lag, 0)], 0.0))

    @cached_property
    def gamma0(self) -> np.ndarray:
        """(N,); [m-1] = gamma_{m,0} = m d_{m-1}."""
        return _readonly(np.arange(1, self.order + 1) * self.d)

    @cached_property
    def monomial(self) -> np.ndarray:
        """(N+1, N+1); row m = coefficients of F_m, constant first.

        Built on first read; nothing on the solve path needs it.
        """
        n = self.order
        mono = np.zeros((n + 1, n + 1), dtype=complex)
        mono[0, 0] = 1.0
        return _readonly(_recurrence(
            self.mapping._coeff_array,
            mono,
            lambda m: (slice(m + 2), np.concatenate(([0.0], mono[m, : m + 1]))),
        ))


def _chop_width(c: np.ndarray, weight=1.0) -> int:
    """Smallest w with sum_{k>=w} weight_k |c[r, k]| <= _CHOP * sum_k |c[r, k]| for every row r.

    A row with a non-finite entry is kept whole.
    """
    mag = np.abs(c)
    bound = _CHOP * mag.sum(axis=1, keepdims=True)
    mag *= weight
    tails = np.cumsum(mag[:, ::-1], axis=1, out=mag[:, ::-1])  # suffix sums, shortest first
    within = tails <= np.where(np.isfinite(bound), bound, -1.0)
    return int(np.max(c.shape[1] - within.sum(axis=1), initial=0))


def _canvas(a: np.ndarray, n: int, width: int) -> np.ndarray:
    """Laurent coefficients of F_m(Psi(w)) for m = 0..n to w**(-width), by the recurrence.

    [m, k] = c_{m,k} for k = 0 .. width; exact for k < width - n.
    Row m lives on the canvas at exponents w**m .. w**(-mM), column
    n - e for exponent e, so c_{m,k} sits at column n + k.  z * F_m is
    taken only over row m+1's columns, as one product of the M + 2
    shifted windows of row m with (a_M .. a_0, 1); the windows are one
    strided view, built once, of a buffer padded by M zero columns on
    the left and one on the right.
    """
    M = len(a) - 1
    buf = np.zeros((n + 1, M + n + width + 2), dtype=complex)
    comp = buf[:, M:-1]
    comp[0, n] = 1.0
    # windows[m, i, c] = buf[m, c + i]: row m shifted by i - M columns
    windows = np.lib.stride_tricks.sliding_window_view(buf, M + 2, axis=1).swapaxes(1, 2)
    psi = np.append(a[::-1], 1.0)

    def times_z(m):
        cols = slice(n - m - 1, n + min((m + 1) * M, width) + 1)
        return cols, psi @ np.ascontiguousarray(windows[m, :, cols])

    _recurrence(a, comp, times_z)
    wide = comp[:, n:]
    wide[:, 0] = 0.0  # F_m(Psi(w)) - w**m has no constant term
    return wide


def _grunsky_wide(mapping: ExteriorMap, n: int, cap: int | None = None) -> np.ndarray:
    """[m, k] = c_{m,k} for m = 0..n: whole rows, k <= n*M, with ``cap`` None; else cut.

    A cut canvas is built to k = cap + n + 1, which holds k = 0 .. cap of
    every row (module docstring), and cut by the chop test
    on those exact columns: at the width past which every row's tail,
    weighted by 1 + k for the rows of k c_{m,k}, is below _CHOP of its
    l1 norm.  The cut is taken when the exact columns past it are at
    least a quarter of those kept, so that the decay has been seen
    rather than assumed (the 1.25 margin of Aurentz and Trefethen's
    standardChop); otherwise cap doubles and the canvas is built again,
    within this one call, until a try would reach half the whole rows,
    which are then built at once.  A cut canvas keeps at least columns
    0 .. n, which hold the Grunsky matrix.
    """
    full = n * max(mapping.order, 1)  # most negative exponent of row n
    while cap is not None and 2 * (cap + n + 1) < full:
        wide = _canvas(mapping._coeff_array, n, cap + n + 1)
        keep = _chop_width(wide[:, : cap + 1], np.arange(1, cap + 2))
        if 5 * keep <= 4 * cap:
            # a view of the canvas buffer, as whole rows are: freeing that
            # buffer raised glibc's dynamic mmap threshold, and with it the
            # process's peak RSS in later allocations
            return wide[:, : max(keep, n + 1)]
        cap *= 2
    return _canvas(mapping._coeff_array, n, full)


def build_faber(mapping: ExteriorMap, n: int) -> FaberTable:
    """Build the Faber table to order n >= 1: d now, the canvas on first read."""
    if n < 1:
        raise ValueError("table order must be at least 1")
    return FaberTable(mapping, _readonly(_inverse_derivative_series(mapping._coeff_array, n)), n)


def check_table_map(mapping: ExteriorMap, table: FaberTable) -> None:
    """Raise ValueError unless ``table`` was built for ``mapping``."""
    if table.mapping is not mapping and table.mapping != mapping:
        raise ValueError("table was built for a different map")


def grunsky_matrix(mapping: ExteriorMap, table: FaberTable) -> np.ndarray:
    """Grunsky matrix c_{m,k}, m,k = 1..N, by exact series composition."""
    check_table_map(mapping, table)
    return table.grunsky.copy()


def derivative_basis(table: FaberTable) -> tuple:
    """(Gamma, gamma0) expressing each F_m' in the Faber basis."""
    return table.gamma.copy(), table.gamma0.copy()


def _check_index(table: FaberTable, m: int) -> None:
    if not 0 <= m <= table.order:
        raise IndexError(f"Faber index {m} outside table order {table.order}")


def eval_faber(table: FaberTable, m: int, z):
    """F_m(z) by the recurrence."""
    _check_index(table, m)
    z = np.asarray(z, dtype=complex)
    return _point_or_array(z, _point_values(table.mapping._coeff_array, m, np.atleast_1d(z))[m])


def eval_ftilde(table: FaberTable, k: int, z):
    """F_k'(z)/k for k >= 1, and 0 for k <= 0."""
    if k <= 0:
        return _point_or_array(z, np.zeros(np.shape(z), dtype=complex))
    _check_index(table, k)
    return _point_or_array(z, faber_values(table.mapping, k, z)[1][k] / k)


def eval_G(mapping: ExteriorMap, k: int, w):
    """G_k(w) = w^{k-1} / Psi'(w), the large-|w| limit shape of F_k'/k."""
    w = np.asarray(w, dtype=complex)
    dpsi = mapping.derivative(w)
    if np.any(np.abs(dpsi) < 1e-12):
        raise NumericError("Psi' vanishes to working precision")
    return _point_or_array(w, w ** (k - 1) / dpsi)


def _point_values(a: np.ndarray, n: int, z: np.ndarray) -> np.ndarray:
    """F_0..F_n at the points z, shape (n+1,) + shape(z), by the recurrence."""
    F = np.zeros((n + 1,) + z.shape, dtype=complex)
    F[0] = 1.0
    return _recurrence(a, F, lambda m: (slice(None), z * F[m]))


def faber_values(mapping: ExteriorMap, n: int, z):
    """Values of F_0..F_n and their derivatives at z, by the recurrence.

    Returns a pair of arrays of shape (n+1,) + shape(z).  It costs
    O(n * M) vector operations instead of O(n^2) for row-wise Horner
    evaluation.  The field evaluators take derivatives through d
    instead (``_derivative_coefficients``); the differentiated
    recurrence here is their independent reference.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    a = mapping._coeff_array
    F = _point_values(a, n, z)
    Fp = np.zeros_like(F)
    return F, _recurrence(a, Fp, lambda m: (slice(None), z * Fp[m] + F[m]))

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
k = m*M), and point values.  Differentiating the recurrence gives the
one for F_m', whose constant term drops out because F_0' = 0.

The change of basis for derivatives,

    F_m' = sum_{j=1}^{m-1} gamma_{m,j} F_j + gamma_{m,0},

has the closed form gamma_{m,j} = m d_{m-1-j} and gamma_{m,0} = m d_{m-1},
where d_k are the Laurent coefficients of 1/Psi'(w) (keep the polynomial
part of F_m'(Psi(w)) = m w**(m-1) / Psi'(w) + O(w**-2); Curtiss, Amer.
Math. Monthly 78, 1971).  The table stores d alone, and the transmission
solve reads only d: every re-expansion of a conjugated series there is a
convolution or a Toeplitz product with conj(d).  The matrices Gamma and
gamma0 are built from d on first read, for the table dumps and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import ExteriorMap
from .errors import NumericError


def _tail(mapping: ExteriorMap) -> np.ndarray:
    """a_0 .. a_M as a complex array."""
    return np.array(
        [mapping.coefficient(k) for k in range(mapping.order + 1)], dtype=complex
    )


def _recurrence(a: np.ndarray, out: np.ndarray, times_z) -> np.ndarray:
    """Fill out[1:] from out[0] = F_0 by the Faber recurrence, in place.

    ``times_z(m)`` returns a new array holding z * F_m in the
    representation of ``out``.
    """
    M = len(a) - 1
    for m in range(len(out) - 1):
        new = times_z(m)
        for s in range(min(m, M) + 1):
            new -= a[s] * out[m - s]
        if m <= M:
            new -= m * a[m] * out[0]
        out[m + 1] = new
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


@dataclass(frozen=True)
class FaberTable:
    """Grunsky and derivative data for F_0 ... F_N."""

    mapping: ExteriorMap
    grunsky: np.ndarray  # (N, N); [m-1, k-1] = c_{m,k}
    d: np.ndarray  # (N,); [k] = d_k, Laurent coefficients of 1/Psi'(w)
    order: int
    _grunsky_wide: np.ndarray  # (N+1, N*M+1); [m, k] = c_{m,k}, exact full rows

    def grunsky_row(self, m: int) -> np.ndarray:
        """All nonzero Grunsky coefficients of row m: c_{m,1} ... c_{m,mM}."""
        top = max(m * max(self.mapping.order, 1), 0)
        return self._grunsky_wide[m, 1 : top + 1]

    @cached_property
    def gamma(self) -> np.ndarray:
        """(N, N); [m-1, j-1] = gamma_{m,j} = m d_{m-1-j}, strictly lower.

        Built on first read, like gamma0; the solve reads d instead.
        """
        m = np.arange(1, self.order + 1)
        lag = m[:, None] - m[None, :] - 1  # m - 1 - j at [m-1, j-1]
        return np.where(lag >= 0, m[:, None] * self.d[np.maximum(lag, 0)], 0.0)

    @cached_property
    def gamma0(self) -> np.ndarray:
        """(N,); [m-1] = gamma_{m,0} = m d_{m-1}."""
        return np.arange(1, self.order + 1) * self.d

    @cached_property
    def monomial(self) -> np.ndarray:
        """(N+1, N+1); row m = coefficients of F_m, constant first.

        Built on first read; nothing on the solve path needs it.
        """
        n = self.order
        mono = np.zeros((n + 1, n + 1), dtype=complex)
        mono[0, 0] = 1.0
        return _recurrence(
            _tail(self.mapping), mono, lambda m: np.concatenate(([0.0], mono[m, :-1]))
        )


def _grunsky_wide(mapping: ExteriorMap, n: int) -> np.ndarray:
    """Laurent coefficients of F_m(Psi(w)) for m = 0..n, by the recurrence."""
    a = _tail(mapping)
    M = mapping.order
    width = n * max(M, 1)  # most negative exponent kept on the canvas
    L = width + n + 1  # canvas exponents -width .. n; index(e) = e + width
    psi = np.concatenate(([1.0], a))[::-1]  # exponents -M .. 1; index(e) = e + M

    comp = np.zeros((n + 1, L), dtype=complex)
    comp[0, width] = 1.0
    _recurrence(a, comp, lambda m: np.convolve(comp[m], psi)[M : M + L])

    wide = np.zeros((n + 1, width + 1), dtype=complex)
    # coefficient of w^{-k} sits at canvas index width - k
    wide[:, 1:] = comp[:, width - 1 :: -1]
    return wide


def build_faber(mapping: ExteriorMap, n: int) -> FaberTable:
    """Build the Faber table to order n >= 1."""
    if n < 1:
        raise ValueError("table order must be at least 1")
    wide = _grunsky_wide(mapping, n)  # at least n columns past k = 0
    return FaberTable(
        mapping=mapping,
        grunsky=wide[1:, 1 : n + 1].copy(),
        d=_inverse_derivative_series(_tail(mapping), n),
        order=n,
        _grunsky_wide=wide,
    )


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
    out = faber_values(table.mapping, m, z)[0][m]
    return complex(out[0]) if z.ndim == 0 else out


def eval_ftilde(table: FaberTable, k: int, z):
    """F_k'(z)/k for k >= 1, and 0 for k <= 0."""
    z = np.asarray(z, dtype=complex)
    if k <= 0:
        out = np.zeros(np.atleast_1d(z).shape, dtype=complex)
    else:
        _check_index(table, k)
        out = faber_values(table.mapping, k, z)[1][k] / k
    return complex(out[0]) if z.ndim == 0 else out


def eval_G(mapping: ExteriorMap, k: int, w):
    """G_k(w) = w^{k-1} / Psi'(w), the large-|w| limit shape of F_k'/k."""
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    dpsi = mapping.derivative(w)
    if np.any(np.abs(dpsi) < 1e-12):
        raise NumericError("Psi' vanishes to working precision")
    out = w ** (k - 1) / dpsi
    return complex(out) if scalar else out


def faber_values(mapping: ExteriorMap, n: int, z):
    """Values of F_0..F_n and their derivatives at z, by the recurrence.

    Returns a pair of arrays of shape (n+1,) + shape(z).  This is the
    workhorse used by the field evaluators; it costs O(n * M) vector
    operations instead of O(n^2) for row-wise Horner evaluation.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    a = _tail(mapping)
    F = np.zeros((n + 1,) + z.shape, dtype=complex)
    F[0] = 1.0
    _recurrence(a, F, lambda m: z * F[m])
    Fp = np.zeros_like(F)
    return F, _recurrence(a, Fp, lambda m: z * Fp[m] + F[m])

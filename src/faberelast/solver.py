"""Density determination for the rigid-inclusion transmission problem.

The boundary density is expanded in the conformal angular modes
e^{±i m theta}/h with complex coefficient vectors s (negative modes)
and t (positive modes).  Matching the single-layer expansion against
the far-field loading on the boundary splits into:

  * t, which is fixed mode-by-mode by the loading (the m = 1 entry also
    carries the rotation constant c3);
  * s, which solves  kappa s^T D + conj(s)^T A D conj(Gamma) = y^T
    where A is the Hankel matrix of map coefficients a_{m+k}, D =
    diag(1/m), and y collects the loading data re-expanded over the
    conjugated Faber basis;
  * the rigid-motion constants c1, c2, c3 from the equilibrium of the
    density and the constant part of the matching.

The order-M structure of the map makes the coupled part of the s-system
at most (M-2) x (M-2); every entry beyond that block is a closed-form
diagonal scaling, so truncation at order N only limits the loading
degree, never the solve itself.

Gamma is never formed here.  With gamma_{m,j} = m d_{m-1-j}, where d_k
are the Laurent coefficients of 1/Psi' (see faber), each product with
conj(Gamma) reads d alone: y comes from convolutions with conj(d), and
the coupled block and the constant channel from a Toeplitz matrix in
conj(d) times the Hankel matrix of the a_k.

Rotation-channel constants
--------------------------
Decomposing the rigid motion c1 + i c2 - i c3 z in the same two-
potential form as the fields, 2 mu u = kappa phi - z conj(phi') -
conj(psi), forces the linear potential part phi = -2i c3 z / (kappa+1):
the linear term feeds both kappa*phi and -z conj(phi'), and the two
contributions sum to -2i c3 z only with the 1/(kappa+1) weight.  The
factor kappa+1 therefore appears wherever c3 enters the matching (the
t_1 relation, the rotation forcing term, the constant bookkeeping, and
the closed-form c3 below).  A quick check: a pure far-field rotation
u0 = i w (kappa+1) z / 2 must yield zero density and a co-rotating
inclusion, c3 = -w (kappa+1)/2, which these constants reproduce exactly
and the quadrature oracle certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conformal import ExteriorMap, _point_or_array, _readonly
from .errors import DegenerateRotationError, SingularBlockError, TruncationError
from .faber import FaberTable, _fold_d, build_faber, check_table_map
from .loading import FarFieldLoading, Material

#: condition-number ceiling for the coupled block
_COND_LIMIT = 1e10
#: threshold on the rotation-constant denominator
_ROTATION_DEN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensitySolution:
    """Density coefficients and rigid-motion constants.

    ``s[m-1]`` and ``t[m-1]`` multiply the boundary modes
    e^{-i m theta}/h and e^{+i m theta}/h respectively; the four real
    coefficient families are exposed as the views s1..s4.  s and t are
    read-only copies of the arrays given: the exterior evaluators of
    fields keep coefficient rows built from them in ``_rows``, one
    (table, rows) pair, so they must not change.  A pickle carries s, t
    and the constants only, and the copy it makes rebuilds its rows.
    Equality and hashing follow identity, as the kept rows match their
    owner by ``is``.
    """

    s: np.ndarray
    t: np.ndarray
    c1: float
    c2: float
    c3: float
    order: int
    _rows: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("s", "t"):
            object.__setattr__(self, name, _readonly(np.array(getattr(self, name), dtype=complex)))

    def __reduce__(self):  # through the constructor, without the kept rows
        return type(self), (self.s, self.t, self.c1, self.c2, self.c3, self.order)

    @property
    def s1(self) -> np.ndarray:
        return self.s.real

    @property
    def s2(self) -> np.ndarray:
        return self.s.imag

    @property
    def s3(self) -> np.ndarray:
        return self.t.real

    @property
    def s4(self) -> np.ndarray:
        return self.t.imag

    def rigid_motion(self, z):
        """The boundary displacement c1 + i c2 - i c3 z of the inclusion."""
        return self.c1 + 1j * self.c2 - 1j * self.c3 * np.asarray(z, dtype=complex)


def required_table_order(mapping: ExteriorMap, n: int) -> int:
    """Faber-table order needed to run the solve at truncation n."""
    return n + mapping.order + 1


def truncation_floor(mapping: ExteriorMap, loading: FarFieldLoading) -> int:
    """Smallest truncation order the solve takes: max(p, 1) + M - 1, and at least p.

    The right-hand side reaches conj(F_l) up to l = max(p, 1) + M - 1 (the
    rotation forcing J1 reaches conj(F_M) at any degree p), so every mode
    it excites is solved for; at M = 0 that is p - 1, and t_p needs n >= p.
    """
    return max(loading.degree, 1) + max(mapping.order - 1, 0)


def solve_t(
    loading: FarFieldLoading, mat: Material, c3: float, n: int
) -> np.ndarray:
    """Positive-mode coefficients t_m, m = 1..n.

    All entries beyond m = 1 follow directly from the loading;
    t_1 = A_1/alpha2 + 2i c3 / ((kappa+1) alpha2) also carries the
    rotation constant.
    """
    t = np.array([m * loading.coefficient_A(m) / mat.alpha2 for m in range(1, n + 1)])
    t[0] = loading.coefficient_A(1) / mat.alpha2 + 2j * c3 / (
        (mat.kappa + 1.0) * mat.alpha2
    )
    return t


def build_AD(mapping: ExteriorMap, n: int) -> tuple:
    """Hankel matrix A[m,k] = a_{m+k} and the diagonal D = diag(1/m)."""
    a = np.concatenate((mapping._coeff_array, np.zeros(2 * n, dtype=complex)))
    m = np.arange(1, n + 1)
    A = a[m[:, None] + m]
    D = np.diag(1.0 / m)
    return A, D


def build_y(
    mapping: ExteriorMap,
    table: FaberTable,
    loading: FarFieldLoading,
    mat: Material,
    n: int,
) -> tuple:
    """Right-hand sides of the s-system, split by dependence on c3.

    Returns (y1, y2, j01, j02) such that the rotation forcing term and
    the loading term expand over the conjugated Faber basis as

        J1 = -alpha2 * (y1 . conj(F) + j01),
        J2 = -alpha2 * (y2 . conj(F) + j02),

    with J1 = -2i/(kappa+1) * sum_{k>=0} a_k conj(Ftilde_{k+1}) and
    J2 = sum_m conj(B_m) conj(F_m)
         + sum_m m conj(A_m) sum_{k>=-1} a_k conj(Ftilde_{k+m}).
    The full right-hand side is y = c3*y1 + y2.  Constant bookkeeping:
    j01/j02 hold only the constants born inside J1/J2; the loading
    constants (-kappa A_0 + conj(B_0)) and the map-shift rotation
    constant -2i kappa c3 a0/(kappa+1) stay with solve_c12, which also
    recovers c1 + i c2 last.
    """
    M = mapping.order
    p = loading.degree
    ntab = table.order
    # the rotation forcing J1 reaches Ftilde_{M+1} even at degree 0
    if max(p, 1) + M > ntab:
        raise TruncationError(
            f"loading degree {p} with map order {M} needs a Faber table of "
            f"order {max(p, 1) + M}, have {ntab}"
        )
    a = np.concatenate(([1.0], mapping._coeff_array))  # a_{-1} = 1, a_0 .. a_M
    # weights b_j of conj(Ftilde_j), j = 0 .. ntab, for J1 and J2; the m = 0
    # term of J2 has zero weight and keeps the convolution defined at p = 0
    b = np.zeros((2, ntab + 1), dtype=complex)
    b[0, : M + 2] = -2j / (mat.kappa + 1.0) * a
    mA = np.arange(p + 1) * np.conj(loading.A[: p + 1])
    b[1, : p + M + 1] = np.convolve(mA, a)[1:]
    # Ftilde_j = F_j'/j = sum_{l<j} d_{j-1-l} F_l, so the weight of conj(F_l)
    # is sum_j b_j conj(d_{j-1-l}), the d-fold of b with conj(d); column 0 is
    # the constant, columns l >= 1 the coefficients of conj(F_l)
    conj_d = np.conj(table.d)
    c = np.array([_fold_d(row, conj_d) for row in b])
    c[1, 1 : p + 1] += np.conj(loading.B[1 : p + 1])
    y = -c / mat.alpha2
    tail = np.abs(y[:, n + 1 :]).max(initial=0.0)
    if tail > 1e-13 * max(1.0, np.abs(y[:, 1:]).max(initial=0.0)):
        raise TruncationError(
            f"right-hand side excites Faber modes beyond the truncation order {n}; "
            f"raise it to at least {truncation_floor(mapping, loading)}"
        )
    return y[0, 1 : n + 1], y[1, 1 : n + 1], y[0, 0], y[1, 0]


def _conj_d_hankel(mapping: ExteriorMap, table: FaberTable, rows: int, cols: int):
    """W[i, j-1] = sum_k conj(d_{k-1-i}) a_{k+j}, i = 0..rows-1, j = 1..cols.

    The Toeplitz factor T[i, k] = conj(d_{k-1-i}) (k > i) times the Hankel
    factor H[k, j] = a_{k+j}; with gamma_{k,i} = k d_{k-1-i}, row i is
    sum_k conj(gamma_{k,i}) a_{k+j} / k.  Only k < M reaches a nonzero a_{k+j}.
    """
    M = mapping.order
    k = np.arange(1, M)
    lag = k[None, :] - np.arange(rows)[:, None] - 1
    T = np.where(lag >= 0, np.conj(table.d)[np.maximum(lag, 0)], 0.0)
    a = np.zeros(M + cols + 1, dtype=complex)
    a[: M + 1] = mapping._coeff_array
    return T @ a[k[:, None] + np.arange(1, cols + 1)[None, :]]


def coupling_block(mapping: ExteriorMap, table: FaberTable, n: int) -> np.ndarray:
    """The matrix conj(Gamma)^T D A; entry (i, j) vanishes for i+j >= M."""
    return _conj_d_hankel(mapping, table, n + 1, n)[1:]


def _coupled_matrix(E: np.ndarray, kappa: float) -> np.ndarray:
    """Real form of kappa D x + E conj(x) on the coupled head, D = diag(1/m).

    Raises SingularBlockError when its condition number exceeds
    _COND_LIMIT.
    """
    h = E.shape[0]
    D_h = np.diag(1.0 / np.arange(1, h + 1))
    mat2 = np.vstack([np.hstack([kappa * D_h + E.real, E.imag]),
                      np.hstack([E.imag, kappa * D_h - E.real])])
    cond = np.linalg.cond(mat2)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularBlockError(
            f"coupled block condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    return mat2


def solve_block(
    mapping: ExteriorMap,
    table: FaberTable,
    y1: np.ndarray,
    y2: np.ndarray,
    mat: Material,
    n: int,
) -> tuple:
    """Solve kappa D u + E conj(u) = y for the two right-hand sides y1 and y2.

    y1 and y2 must have equal length.  Rows past the coupled head of
    order min(M-2, n) are a pure diagonal scaling; the head's real
    matrix and its condition number are built once for both sides.
    Returns (u1, u2) with the final density s = c3*u1 + u2.
    """
    h = max(0, min(mapping.order - 2, n))
    y = np.array([y1, y2], dtype=complex)
    u = np.arange(1, y.shape[1] + 1) * y / mat.kappa
    if h:
        mat2 = _coupled_matrix(coupling_block(mapping, table, h), mat.kappa)
        for u_k, y_k in zip(u, y):  # one solve per side: a two-column solve rounds otherwise
            xy = np.linalg.solve(mat2, np.concatenate([y_k[:h].real, y_k[:h].imag]))
            u_k[:h] = xy[:h] + 1j * xy[h:]
    return u[0], u[1]


def _pair_with_map(u: np.ndarray, mapping: ExteriorMap) -> complex:
    """sum_m u_m conj(a_m) over the map coefficients a_1..a_M."""
    acc = 0.0 + 0.0j
    for m in range(1, min(len(u), mapping.order) + 1):
        acc += u[m - 1] * np.conj(mapping.coefficient(m))
    return acc


def solve_c3(
    u1: np.ndarray,
    u2: np.ndarray,
    mapping: ExteriorMap,
    loading: FarFieldLoading,
    mat: Material,
) -> float:
    """Rotation constant from the moment equilibrium of the density.

    Equilibrium against the rotation mode ties Im(t_1) to
    -Im(s . conj(a)); with s = c3 u1 + u2 and the t_1 relation this is
    a single linear equation for c3:

        c3 = (kappa+1) * (-Im A_1 - alpha2 Im(u2 . conj(a)))
             / (2 + (kappa+1) alpha2 Im(u1 . conj(a))).
    """
    kap1 = mat.kappa + 1.0
    num = -np.imag(loading.coefficient_A(1)) - mat.alpha2 * np.imag(
        _pair_with_map(u2, mapping)
    )
    den = 2.0 + kap1 * mat.alpha2 * np.imag(_pair_with_map(u1, mapping))
    if abs(den) < _ROTATION_DEN_TOL:
        raise DegenerateRotationError(
            f"rotation denominator {den:.3e} below {_ROTATION_DEN_TOL:.0e}"
        )
    return float(kap1 * num / den)


def solve_c12(
    s: np.ndarray,
    c3: float,
    j01: complex,
    j02: complex,
    mapping: ExteriorMap,
    table: FaberTable,
    loading: FarFieldLoading,
    mat: Material,
) -> tuple:
    """Translation constants from the constant part of the matching.

    The constant channel reads conj(s)^T A D conj(gamma0) = j0 where j0
    collects, besides c3*j01 + j02 from build_y, the terms handled here:
    -(1/alpha2) * (-kappa A_0 + conj(B_0) + 2 c1 + 2i c2
                   - 2i kappa c3 a0/(kappa+1)).
    Solving for c1 + i c2 gives the expression below.
    """
    lhs = np.conj(s) @ _conj_d_hankel(mapping, table, 1, len(s))[0]
    a0 = mapping.coefficient(0)
    kap = mat.kappa
    c12 = (
        -0.5 * mat.alpha2 * (lhs - c3 * j01 - j02)
        + 0.5 * (kap * loading.coefficient_A(0) - np.conj(loading.coefficient_B(0)))
        + 1j * kap * c3 * a0 / (kap + 1.0)
    )
    return float(c12.real), float(c12.imag)


def solve_full(
    mapping: ExteriorMap,
    loading: FarFieldLoading,
    mat: Material,
    n: int,
    table: FaberTable | None = None,
) -> DensitySolution:
    """Run the whole determination pipeline at truncation order n.

    Raises NonUnivalentMapError when the map fails its univalence check.
    """
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    mapping.require_univalent()
    floor = truncation_floor(mapping, loading)
    if n < floor:
        raise TruncationError(f"loading degree {loading.degree}, map order {mapping.order}: "
                              f"the right-hand side needs truncation order at least {floor}")
    if table is not None:
        check_table_map(mapping, table)
    if table is None or table.order < required_table_order(mapping, n) - 1:
        table = build_faber(mapping, required_table_order(mapping, n))
    y1, y2, j01, j02 = build_y(mapping, table, loading, mat, n)
    u1, u2 = solve_block(mapping, table, y1, y2, mat, n)
    c3 = solve_c3(u1, u2, mapping, loading, mat)
    s = c3 * u1 + u2
    t = solve_t(loading, mat, c3, n)
    c1, c2 = solve_c12(s, c3, j01, j02, mapping, table, loading, mat)
    return DensitySolution(s=s, t=t, c1=c1, c2=c2, c3=c3, order=n)


def density_on_boundary(sol: DensitySolution, mapping: ExteriorMap, theta):
    """Boundary density sum_m (s_m e^{-im t} + t_m e^{im t}) / h(0, t).

    The evaluator for any theta, mode by mode.  At the nodes of a
    trapezoid rule the oracle takes the same sum by one FFT and tests it
    against this one.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    e = np.exp(1j * th)
    acc = np.zeros_like(e)
    neg = np.conj(e)
    pos_pow = e.copy()
    neg_pow = neg.copy()
    for m in range(1, sol.order + 1):
        acc += sol.s[m - 1] * neg_pow + sol.t[m - 1] * pos_pow
        pos_pow *= e
        neg_pow *= neg
    h = mapping.scale_factor(np.zeros_like(th), th)
    return _point_or_array(theta, acc / h)


def system_residual(
    sol: DensitySolution,
    mapping: ExteriorMap,
    table: FaberTable,
    loading: FarFieldLoading,
    mat: Material,
) -> float:
    """Residual of kappa s^T D + conj(s)^T A D conj(Gamma) = y^T."""
    n = sol.order
    A, D = build_AD(mapping, n)
    y1, y2, _, _ = build_y(mapping, table, loading, mat, n)
    y = sol.c3 * y1 + y2
    lhs = mat.kappa * sol.s @ D + np.conj(sol.s) @ A @ D @ np.conj(table.gamma[:n, :n])
    return float(np.abs(lhs - y).max())
